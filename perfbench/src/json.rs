//! A flat JSON object writer for the one-line results this binary prints.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// A float, printed with every digit (Rust's shortest round-trip form).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        let v = if v.is_finite() { v } else { 0.0 };
        self.raw(key, format!("{v:?}"))
    }

    /// An unsigned integer.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Obj {
        self.raw(key, v.to_string())
    }

    /// A string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.raw(key, quote(v))
    }

    /// A 64-bit digest, as a `0x`-prefixed hex string.
    pub fn digest(&mut self, key: &str, v: u64) -> &mut Obj {
        self.raw(key, quote(&format!("{v:#018x}")))
    }

    /// An already serialized value (a nested object).
    pub fn raw(&mut self, key: &str, json: String) -> &mut Obj {
        self.0.push((key.to_string(), json));
        self
    }

    /// The serialized object.
    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", quote(k));
        }
        s.push('}');
        s
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_objects() {
        let mut o = Obj::default();
        o.num("a", 1.5)
            .int("b", 2)
            .str("c", "x\"y")
            .digest("d", 255);
        assert_eq!(
            o.render(),
            r#"{"a":1.5,"b":2,"c":"x\"y","d":"0x00000000000000ff"}"#
        );
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        let mut o = Obj::default();
        o.num("nan", f64::NAN).num("whole", 3.0);
        assert_eq!(o.render(), r#"{"nan":0.0,"whole":3.0}"#);
    }
}
