//! A minimal JSON writer: objects built field by field into a `String`.

/// Renders a finite float with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values (which JSON cannot carry) become
/// `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Renders a string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object under construction: `key: raw JSON value` pairs.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already rendered JSON.
    pub fn raw(mut self, key: &str, value: String) -> Obj {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a number field.
    pub fn num(self, key: &str, x: f64) -> Obj {
        self.raw(key, num(x))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, x: u64) -> Obj {
        self.raw(key, x.to_string())
    }

    /// Adds a string field.
    pub fn str(self, key: &str, s: &str) -> Obj {
        self.raw(key, string(s))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, b: bool) -> Obj {
        self.raw(key, b.to_string())
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a list of already rendered values.
pub fn list(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_numbers_strings_and_objects() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.123456789012), "0.123456789012");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let o = Obj::new().int("n", 3).str("s", "x").bool("ok", true);
        assert_eq!(o.render(), "{\"n\": 3, \"s\": \"x\", \"ok\": true}");
        assert_eq!(list(["1".to_string(), "2".to_string()]), "[1, 2]");
    }
}
