//! The little JSON this benchmark writes (it parses none).

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (JSON has none) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"k": v, ...}` from pre-rendered values, in the given order.
pub fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from pre-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// The one JSON object the driver reads off the last line of stdout:
/// exactly `correct`, `attempted`, `failed` and `metrics`, each metric
/// as `(name, value, unit)`.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<(String, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                object(&[("value".into(), num(value)), ("unit".into(), quote(unit))]),
            )
        })
        .collect();
    object(&[
        ("correct".into(), correct.to_string()),
        ("attempted".into(), attempted.to_string()),
        ("failed".into(), failed.to_string()),
        ("metrics".into(), object(&metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_render_as_json() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(
            object(&[("k".into(), num(2.0)), ("s".into(), quote("v"))]),
            "{\"k\": 2, \"s\": \"v\"}"
        );
        assert_eq!(array(&[num(1.0), num(2.5)]), "[1, 2.5]");
    }
}
