//! VCD (Value Change Dump) trace output.
//!
//! A hardware simulator earns trust when you can *look* at what it did.
//! This module renders signal activity — engine busy flags, FIFO
//! occupancy, phase IDs — to the standard VCD format, viewable in
//! GTKWave or any waveform viewer. Self-contained writer, no
//! dependencies.

use crate::time::Cycles;
use core::fmt::Write as _;

/// Handle to a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalId(usize);

struct Signal {
    name: String,
    width: u32,
    ident: String,
}

/// A VCD trace under construction.
pub struct VcdTrace {
    signals: Vec<Signal>,
    /// (time, signal, value) — kept in insertion order, stably sorted by
    /// time at render.
    changes: Vec<(u64, usize, u64)>,
    module: String,
}

impl VcdTrace {
    /// A trace whose signals live under `module` in the hierarchy.
    #[must_use]
    pub fn new(module: &str) -> Self {
        Self { signals: Vec::new(), changes: Vec::new(), module: module.to_string() }
    }

    /// Declare a signal of `width` bits (1 = wire, >1 = bus).
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 64.
    pub fn add_signal(&mut self, name: &str, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width must be 1..=64, got {width}");
        let ident = Self::ident_for(self.signals.len());
        self.signals.push(Signal { name: sanitize(name), width, ident });
        SignalId(self.signals.len() - 1)
    }

    /// Record a value change at `time`.
    ///
    /// # Panics
    /// Panics if `value` does not fit the signal's width.
    pub fn change(&mut self, time: Cycles, id: SignalId, value: u64) {
        let sig = &self.signals[id.0];
        if sig.width < 64 {
            assert!(
                value < (1u64 << sig.width),
                "value {value} exceeds {}-bit signal {}",
                sig.width,
                sig.name
            );
        }
        self.changes.push((time.get(), id.0, value));
    }

    /// Render the full VCD document. Changes are emitted in time order
    /// (stable for equal timestamps); every signal gets an `x` initial
    /// value in `$dumpvars` unless changed at time 0.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date protea-hwsim $end");
        let _ = writeln!(out, "$version protea-hwsim VCD writer $end");
        let _ = writeln!(out, "$timescale 1 ns $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize(&self.module));
        for s in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", s.width, s.ident, s.name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // initial values
        let _ = writeln!(out, "$dumpvars");
        for s in &self.signals {
            if s.width == 1 {
                let _ = writeln!(out, "x{}", s.ident);
            } else {
                let _ = writeln!(out, "bx {}", s.ident);
            }
        }
        let _ = writeln!(out, "$end");

        let mut ordered: Vec<(u64, usize, u64)> = self.changes.clone();
        ordered.sort_by_key(|&(t, ..)| t);
        let mut last_time: Option<u64> = None;
        for (t, idx, v) in ordered {
            if last_time != Some(t) {
                let _ = writeln!(out, "#{t}");
                last_time = Some(t);
            }
            let s = &self.signals[idx];
            if s.width == 1 {
                let _ = writeln!(out, "{}{}", v & 1, s.ident);
            } else {
                let _ = writeln!(out, "b{v:b} {}", s.ident);
            }
        }
        out
    }

    /// VCD short identifiers: printable ASCII 33..=126, multi-char when
    /// exhausted.
    fn ident_for(mut n: usize) -> String {
        const BASE: usize = 94;
        let mut s = String::new();
        loop {
            s.push((33 + (n % BASE)) as u8 as char);
            n /= BASE;
            if n == 0 {
                break;
            }
            n -= 1;
        }
        s
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_declarations() {
        let mut t = VcdTrace::new("protea core");
        t.add_signal("qkv busy", 1);
        t.add_signal("phase", 4);
        let doc = t.render();
        assert!(doc.contains("$scope module protea_core $end"));
        assert!(doc.contains("$var wire 1 ! qkv_busy $end"));
        assert!(doc.contains("$var wire 4 \" phase $end"));
        assert!(doc.contains("$enddefinitions $end"));
    }

    #[test]
    fn changes_render_in_time_order() {
        let mut t = VcdTrace::new("m");
        let a = t.add_signal("a", 1);
        let b = t.add_signal("b", 8);
        t.change(Cycles(20), a, 1);
        t.change(Cycles(5), b, 0b1010);
        t.change(Cycles(5), a, 0);
        let doc = t.render();
        let p5 = doc.find("#5").unwrap();
        let p20 = doc.find("#20").unwrap();
        assert!(p5 < p20);
        // same-time changes keep insertion order (b then a)
        let seg = &doc[p5..p20];
        assert!(seg.find("b1010").unwrap() < seg.find("0!").unwrap());
    }

    #[test]
    fn identifiers_are_unique_at_scale() {
        let mut t = VcdTrace::new("m");
        let ids: Vec<String> = (0..300).map(VcdTrace::ident_for).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "identifier collision");
        let _ = t.add_signal("x", 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_rejected() {
        let mut t = VcdTrace::new("m");
        let s = t.add_signal("nibble", 4);
        t.change(Cycles(0), s, 16);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let mut t = VcdTrace::new("m");
        let _ = t.add_signal("bad", 0);
    }

    #[test]
    fn wide_signal_full_range() {
        let mut t = VcdTrace::new("m");
        let s = t.add_signal("wide", 64);
        t.change(Cycles(1), s, u64::MAX);
        assert!(t.render().contains(&format!("b{:b} ", u64::MAX)));
    }

    #[test]
    fn empty_trace_still_valid() {
        let t = VcdTrace::new("m");
        let doc = t.render();
        assert!(doc.contains("$dumpvars"));
        assert!(!doc.contains('#'));
    }
}
