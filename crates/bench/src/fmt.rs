//! Minimal table rendering and result output for the harness binaries.

/// Render a table: header row + data rows, columns padded to content.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_owned: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_owned, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format a float with sensible precision for latency/GOPS cells.
#[must_use]
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() < 0.01 {
        format!("{v:.5}")
    } else if v.abs() < 10.0 {
        format!("{v:.2}")
    } else if v.abs() < 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.0}")
    }
}

/// Write a harness binary's JSON result to the path that follows
/// `--out` in `args`, and say so. Without `--out` nothing is written, so
/// a run from the repository root leaves the committed `BENCH_*.json`
/// as it is.
///
/// # Errors
/// `--out` without a path after it, or a failed write.
pub fn write_out(args: &[String], json: &str) -> Result<(), String> {
    let Some(i) = args.iter().position(|a| a == "--out") else {
        return Ok(());
    };
    let path = args.get(i + 1).filter(|p| !p.starts_with("--")).ok_or("--out needs a path")?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4); // header, separator, two data rows
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains('a'));
        assert!(lines[3].contains("longer"));
        // all lines equal width
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn num_precision_tiers() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(0.0017), "0.00170");
        assert_eq!(num(4.48), "4.48");
        assert_eq!(num(279.3), "279.3");
        assert_eq!(num(9124.0), "9124");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
