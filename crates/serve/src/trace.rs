//! Workload traces: a timestamped request stream, loadable from a small
//! JSON dialect or generated synthetically (Poisson arrivals, drawn by
//! [`PoissonSource`]).
//!
//! The parser is hand-rolled and total: any byte sequence either yields
//! a [`Workload`] or a [`ServeError::Trace`] with an offset — corrupt or
//! adversarial input cannot panic the process (nesting is depth-capped,
//! numbers are range-checked, duplicate keys take the last value).
//!
//! Format:
//!
//! ```json
//! { "requests": [
//!   { "arrival_us": 0,  "d_model": 96, "heads": 4, "layers": 2, "seq_len": 17 },
//!   { "arrival_us": 40, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 61 }
//! ] }
//! ```
//!
//! Each request may optionally carry `"deadline_us"` (absolute, from
//! trace start), `"priority"` (`"best-effort"` | `"normal"` |
//! `"interactive"`), `"tenant"` (a non-negative tenant id),
//! `"decode_steps"` (tokens to generate after the prefill), and
//! `"token_deadline_us"` (per-token deadline, relative); all default to
//! the pre-overload behavior (no deadline, normal priority, tenant `0`,
//! one-shot encode).

use crate::error::ServeError;
use crate::request::{Priority, ServeRequest};
use crate::source::PoissonSource;

/// A finite request stream, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    /// The requests, ascending by `arrival_ns`.
    pub requests: Vec<ServeRequest>,
}

impl Workload {
    /// Parse the JSON trace dialect documented at the module level.
    ///
    /// # Errors
    /// [`ServeError::Trace`] with a byte offset on any malformed input;
    /// [`ServeError::EmptyTrace`] when the file parses but holds no
    /// requests.
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        let value = json::parse(text)?;
        let top = value.as_object(0, "top level")?;
        let requests_val = top
            .iter()
            .rev()
            .find(|(k, _)| k == "requests")
            .map(|(_, v)| v)
            .ok_or_else(|| trace_err(0, "missing \"requests\" key"))?;
        let items = requests_val.as_array(0, "\"requests\"")?;
        let mut requests = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            requests.push(request_from_value(item, i as u64)?);
        }
        if requests.is_empty() {
            return Err(ServeError::EmptyTrace);
        }
        requests.sort_by_key(|r| (r.arrival_ns, r.id));
        Ok(Self { requests })
    }

    /// Render back to the JSON trace dialect (round-trips through
    /// [`from_json`](Self::from_json) up to request ids).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{ \"requests\": [\n");
        for (i, r) in self.requests.iter().enumerate() {
            let mut extra = String::new();
            if let Some(d) = r.deadline_ns {
                extra.push_str(&format!(", \"deadline_us\": {}", d / 1_000));
            }
            if r.priority != Priority::Normal {
                extra.push_str(&format!(", \"priority\": \"{}\"", r.priority));
            }
            if r.tenant != 0 {
                extra.push_str(&format!(", \"tenant\": {}", r.tenant));
            }
            if r.decode_steps != 0 {
                extra.push_str(&format!(", \"decode_steps\": {}", r.decode_steps));
            }
            if let Some(t) = r.token_deadline_ns {
                extra.push_str(&format!(", \"token_deadline_us\": {}", t / 1_000));
            }
            out.push_str(&format!(
                "  {{ \"arrival_us\": {}, \"d_model\": {}, \"heads\": {}, \"layers\": {}, \"seq_len\": {}{} }}{}\n",
                r.arrival_ns / 1_000,
                r.d_model,
                r.heads,
                r.layers,
                r.seq_len,
                extra,
                if i + 1 == self.requests.len() { "" } else { "," }
            ));
        }
        out.push_str("] }\n");
        out
    }

    /// Generate a Poisson-arrival workload: [`PoissonSource::new`]'s
    /// requests (same arguments, same fallback rules), drained into a
    /// `Vec`. Deterministic in `seed`.
    #[must_use]
    pub fn poisson(
        n: usize,
        rate_per_s: f64,
        classes: &[(usize, usize, usize)],
        seq_range: (usize, usize),
        seed: u64,
    ) -> Self {
        let mut source = PoissonSource::new(n, rate_per_s, classes, seq_range, seed);
        let mut requests = Vec::with_capacity(n);
        requests.extend(std::iter::from_fn(|| source.draw()));
        Self { requests }
    }

    /// Stamp every request with a completion deadline `rel_ns` after its
    /// arrival (builder-style, for overload experiments).
    #[must_use]
    pub fn with_deadline(mut self, rel_ns: u64) -> Self {
        for r in &mut self.requests {
            r.deadline_ns = Some(r.arrival_ns.saturating_add(rel_ns));
        }
        self
    }

    /// Assign priorities round-robin from `cycle` (builder-style;
    /// deterministic, so seeded workloads stay replayable). An empty
    /// cycle leaves priorities untouched.
    #[must_use]
    pub fn with_priorities(mut self, cycle: &[Priority]) -> Self {
        if cycle.is_empty() {
            return self;
        }
        for (i, r) in self.requests.iter_mut().enumerate() {
            r.priority = cycle[i % cycle.len()];
        }
        self
    }

    /// Assign tenant ids round-robin across `tenants` tenants
    /// (builder-style, deterministic). `tenants == 0` leaves the trace
    /// single-tenant.
    #[must_use]
    pub fn with_tenants(mut self, tenants: u32) -> Self {
        if tenants == 0 {
            return self;
        }
        for (i, r) in self.requests.iter_mut().enumerate() {
            r.tenant = (i as u32) % tenants;
        }
        self
    }

    /// Turn every request into a generation request emitting `steps`
    /// tokens after its prefill, with an optional per-token deadline
    /// `token_deadline_ns` after the previous token (builder-style,
    /// deterministic). `steps == 0` leaves the trace one-shot.
    #[must_use]
    pub fn with_decode(mut self, steps: u32, token_deadline_ns: Option<u64>) -> Self {
        if steps == 0 {
            return self;
        }
        for r in &mut self.requests {
            r.decode_steps = steps;
            r.token_deadline_ns = token_deadline_ns;
        }
        self
    }

    /// Total trace span in seconds (first arrival is relative to zero).
    #[must_use]
    pub fn span_s(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_ns as f64 / 1e9)
    }
}

/// Parse one request object from the trace dialect. `id` is the
/// request's position in the `"requests"` array.
fn request_from_value(item: &json::Value, id: u64) -> Result<ServeRequest, ServeError> {
    let obj = item.as_object(0, "request")?;
    let field = |name: &str| -> Result<u64, ServeError> {
        obj.iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_u64(0, name))
            .ok_or_else(|| trace_err(0, format!("request {id} missing \"{name}\"")))?
    };
    let opt_field = |name: &str| -> Option<&json::Value> {
        obj.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v)
    };
    let deadline_ns = match opt_field("deadline_us") {
        Some(v) => Some(v.as_u64(0, "deadline_us")?.saturating_mul(1_000)),
        None => None,
    };
    let priority = match opt_field("priority") {
        Some(v) => {
            let s = v.as_str(0, "priority")?;
            Priority::parse(s).ok_or_else(|| {
                trace_err(
                    0,
                    format!(
                        "request {id}: unknown priority {s:?} \
                         (want best-effort | normal | interactive)"
                    ),
                )
            })?
        }
        None => Priority::Normal,
    };
    let tenant = match opt_field("tenant") {
        Some(v) => {
            let raw = v.as_u64(0, "tenant")?;
            u32::try_from(raw)
                .map_err(|_| trace_err(0, format!("request {id}: tenant {raw} out of range")))?
        }
        None => 0,
    };
    let decode_steps = match opt_field("decode_steps") {
        Some(v) => {
            let raw = v.as_u64(0, "decode_steps")?;
            u32::try_from(raw).map_err(|_| {
                trace_err(0, format!("request {id}: decode_steps {raw} out of range"))
            })?
        }
        None => 0,
    };
    let token_deadline_ns = match opt_field("token_deadline_us") {
        Some(v) => Some(v.as_u64(0, "token_deadline_us")?.saturating_mul(1_000)),
        None => None,
    };
    Ok(ServeRequest {
        id,
        arrival_ns: field("arrival_us")?.saturating_mul(1_000),
        d_model: field("d_model")? as usize,
        heads: field("heads")? as usize,
        layers: field("layers")? as usize,
        seq_len: field("seq_len")? as usize,
        priority,
        deadline_ns,
        tenant,
        decode_steps,
        token_deadline_ns,
    })
}

fn trace_err(at: usize, msg: impl Into<String>) -> ServeError {
    ServeError::Trace { at, msg: msg.into() }
}

/// A minimal total JSON reader: just enough for the trace dialect, with
/// a nesting cap so deeply nested adversarial input errors out instead
/// of overflowing the stack.
mod json {
    use super::{trace_err, ServeError};

    const MAX_DEPTH: usize = 32;

    /// A parsed JSON value (numbers restricted to unsigned integers —
    /// all the trace format needs).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Unsigned integer.
        UInt(u64),
        /// String.
        Str(String),
        /// `true` / `false`.
        Bool(bool),
        /// `null`.
        Null,
        /// Array.
        Array(Vec<Value>),
        /// Object as an ordered key-value list.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self, at: usize, what: &str) -> Result<&[(String, Value)], ServeError> {
            match self {
                Value::Object(kv) => Ok(kv),
                other => Err(trace_err(at, format!("{what} must be an object, got {other:?}"))),
            }
        }

        pub fn as_array(&self, at: usize, what: &str) -> Result<&[Value], ServeError> {
            match self {
                Value::Array(v) => Ok(v),
                other => Err(trace_err(at, format!("{what} must be an array, got {other:?}"))),
            }
        }

        pub fn as_u64(&self, at: usize, what: &str) -> Result<u64, ServeError> {
            match self {
                Value::UInt(n) => Ok(*n),
                other => Err(trace_err(
                    at,
                    format!("{what} must be a non-negative integer, got {other:?}"),
                )),
            }
        }

        pub fn as_str(&self, at: usize, what: &str) -> Result<&str, ServeError> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(trace_err(at, format!("{what} must be a string, got {other:?}"))),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, ServeError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(trace_err(p.pos, "trailing data after JSON value"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ServeError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(trace_err(self.pos, format!("expected '{}'", b as char)))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, ServeError> {
            if depth > MAX_DEPTH {
                return Err(trace_err(self.pos, "nesting too deep"));
            }
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'[') => self.array(depth),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'0'..=b'9') => self.number(),
                Some(b't') => self.keyword("true", Value::Bool(true)),
                Some(b'f') => self.keyword("false", Value::Bool(false)),
                Some(b'n') => self.keyword("null", Value::Null),
                Some(c) => Err(trace_err(self.pos, format!("unexpected byte '{}'", c as char))),
                None => Err(trace_err(self.pos, "unexpected end of input")),
            }
        }

        fn keyword(&mut self, word: &str, v: Value) -> Result<Value, ServeError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(trace_err(self.pos, format!("expected '{word}'")))
            }
        }

        fn number(&mut self) -> Result<Value, ServeError> {
            let start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
                return Err(trace_err(self.pos, "only unsigned integers are supported"));
            }
            let text = core::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| trace_err(start, "invalid number"))?;
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| trace_err(start, "integer out of range"))
        }

        fn string(&mut self) -> Result<String, ServeError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(c @ (b'"' | b'\\' | b'/')) => {
                                out.push(c as char);
                                self.pos += 1;
                            }
                            Some(b'n') => {
                                out.push('\n');
                                self.pos += 1;
                            }
                            Some(b't') => {
                                out.push('\t');
                                self.pos += 1;
                            }
                            _ => return Err(trace_err(self.pos, "unsupported escape")),
                        }
                    }
                    Some(_) => {
                        // consume one UTF-8 scalar, not one byte
                        let rest = core::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| trace_err(self.pos, "invalid UTF-8 in string"))?;
                        let ch = rest
                            .chars()
                            .next()
                            .ok_or_else(|| trace_err(self.pos, "unterminated string"))?;
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                    None => return Err(trace_err(self.pos, "unterminated string")),
                }
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, ServeError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(trace_err(self.pos, "expected ',' or ']'")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, ServeError> {
            self.expect(b'{')?;
            let mut kv = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(kv));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                kv.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(kv));
                    }
                    _ => return Err(trace_err(self.pos, "expected ',' or '}'")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_json() {
        let w = Workload::poisson(20, 5_000.0, &[(96, 4, 2), (128, 4, 2)], (8, 64), 7);
        let back = Workload::from_json(&w.to_json()).unwrap();
        assert_eq!(back.requests.len(), 20);
        for (a, b) in w.requests.iter().zip(&back.requests) {
            assert_eq!(
                (a.d_model, a.heads, a.layers, a.seq_len),
                (b.d_model, b.heads, b.layers, b.seq_len)
            );
            // to_json rounds to whole microseconds
            assert_eq!(a.arrival_ns / 1_000, b.arrival_ns / 1_000);
        }
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = Workload::poisson(50, 1_000.0, &[(96, 4, 2)], (8, 32), 42);
        let b = Workload::poisson(50, 1_000.0, &[(96, 4, 2)], (8, 32), 42);
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.requests.iter().all(|r| (8..=32).contains(&r.seq_len)));
    }

    #[test]
    fn parse_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "garbage",
            "{",
            "{ \"requests\": }",
            "{ \"requests\": [ { \"arrival_us\": -4 } ] }",
            "{ \"requests\": [ { \"arrival_us\": 1e9 } ] }",
            "{ \"requests\": [ {} ] }",
            "{ \"requests\": [] }",
            "{ \"requests\": [ 3 ] }",
            "{\"requests\":[{\"arrival_us\":0,\"d_model\":96,\"heads\":4,\"layers\":2,\"seq_len\":8}]} x",
            &("[".repeat(100) + &"]".repeat(100)),
            "{ \"requests\": [ { \"arrival_us\": 99999999999999999999 } ] }",
        ] {
            let r = Workload::from_json(bad);
            assert!(r.is_err(), "{bad:?} should be rejected, got {r:?}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_extra_keys() {
        let text = r#"
        {
          "comment": "extra keys are ignored",
          "requests": [
            { "seq_len": 8, "layers": 2, "heads": 4, "d_model": 96, "arrival_us": 10 }
          ]
        }"#;
        let w = Workload::from_json(text).unwrap();
        assert_eq!(w.requests.len(), 1);
        assert_eq!(w.requests[0].arrival_ns, 10_000);
        assert_eq!(w.requests[0].seq_len, 8);
    }

    #[test]
    fn deadline_and_priority_round_trip() {
        let w = Workload::poisson(6, 5_000.0, &[(96, 4, 2)], (8, 16), 3)
            .with_deadline(2_000_000)
            .with_priorities(&[Priority::BestEffort, Priority::Normal, Priority::Interactive]);
        let back = Workload::from_json(&w.to_json()).unwrap();
        for (a, b) in w.requests.iter().zip(&back.requests) {
            assert_eq!(a.priority, b.priority);
            assert_eq!(a.deadline_ns.map(|d| d / 1_000), b.deadline_ns.map(|d| d / 1_000));
        }
    }

    #[test]
    fn overload_fields_are_optional_and_validated() {
        let plain = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8 }
        ] }"#;
        let w = Workload::from_json(plain).unwrap();
        assert_eq!(w.requests[0].priority, Priority::Normal);
        assert_eq!(w.requests[0].deadline_ns, None);
        let tagged = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8,
              "deadline_us": 500, "priority": "interactive" }
        ] }"#;
        let w = Workload::from_json(tagged).unwrap();
        assert_eq!(w.requests[0].priority, Priority::Interactive);
        assert_eq!(w.requests[0].deadline_ns, Some(500_000));
        for bad in [
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "priority": "urgent" } ] }"#,
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "priority": 3 } ] }"#,
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "deadline_us": "soon" } ] }"#,
        ] {
            assert!(Workload::from_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn tenant_field_is_optional_round_trips_and_is_validated() {
        let plain = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8 }
        ] }"#;
        assert_eq!(Workload::from_json(plain).unwrap().requests[0].tenant, 0);
        let tagged = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8, "tenant": 2 }
        ] }"#;
        assert_eq!(Workload::from_json(tagged).unwrap().requests[0].tenant, 2);
        let w = Workload::poisson(9, 5_000.0, &[(96, 4, 2)], (8, 16), 3).with_tenants(3);
        assert_eq!(w.requests.iter().map(|r| r.tenant).collect::<Vec<_>>().len(), 9);
        let back = Workload::from_json(&w.to_json()).unwrap();
        for (a, b) in w.requests.iter().zip(&back.requests) {
            assert_eq!(a.tenant, b.tenant);
        }
        for bad in [
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "tenant": "gold" } ] }"#,
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "tenant": 4294967296 } ] }"#,
        ] {
            assert!(Workload::from_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn decode_fields_are_optional_round_trip_and_are_validated() {
        let plain = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8 }
        ] }"#;
        let r = Workload::from_json(plain).unwrap().requests[0];
        assert_eq!((r.decode_steps, r.token_deadline_ns), (0, None));
        let tagged = r#"{ "requests": [
            { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8,
              "decode_steps": 6, "token_deadline_us": 250 }
        ] }"#;
        let r = Workload::from_json(tagged).unwrap().requests[0];
        assert_eq!(r.decode_steps, 6);
        assert_eq!(r.token_deadline_ns, Some(250_000));
        let w =
            Workload::poisson(5, 5_000.0, &[(96, 4, 2)], (8, 16), 3).with_decode(4, Some(300_000));
        let back = Workload::from_json(&w.to_json()).unwrap();
        for (a, b) in w.requests.iter().zip(&back.requests) {
            assert_eq!(a.decode_steps, b.decode_steps);
            assert_eq!(a.token_deadline_ns, b.token_deadline_ns);
        }
        for bad in [
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "decode_steps": "many" } ] }"#,
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "decode_steps": 4294967296 } ] }"#,
            r#"{ "requests": [ { "arrival_us": 1, "d_model": 96, "heads": 4, "layers": 2,
                 "seq_len": 8, "token_deadline_us": "soon" } ] }"#,
        ] {
            assert!(Workload::from_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn unsorted_arrivals_get_sorted() {
        let text = r#"{ "requests": [
            { "arrival_us": 50, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 8 },
            { "arrival_us": 10, "d_model": 96, "heads": 4, "layers": 2, "seq_len": 9 }
        ] }"#;
        let w = Workload::from_json(text).unwrap();
        assert_eq!(w.requests[0].seq_len, 9);
        assert!(w.requests[0].arrival_ns < w.requests[1].arrival_ns);
    }
}
