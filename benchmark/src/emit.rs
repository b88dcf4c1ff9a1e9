//! A minimal JSON writer: the result line, `BENCHMARK.json` and the
//! chrome trace are all the JSON this benchmark produces, so it carries
//! its own emitter instead of depending on `crates/bench` (which ROADMAP
//! item 5 will shrink).

#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value at each open nesting level needs a comma.
    need_comma: Vec<bool>,
    after_key: bool,
    /// Indent of a line break requested by [`JsonWriter::newline`], put
    /// out after the comma of the value or bracket that follows.
    pending_break: Option<usize>,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
        self.flush_break();
    }

    fn flush_break(&mut self) {
        if let Some(indent) = self.pending_break.take() {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', indent));
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.need_comma.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.flush_break();
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.need_comma.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.flush_break();
        self.out.push(']');
        self
    }

    pub fn key(&mut self, k: &str) -> &mut Self {
        self.before_value();
        self.push_string(k);
        self.out.push(':');
        self.after_key = true;
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        self.push_string(s);
        self
    }

    /// Writes `v` with every digit `f64` carries (Rust's shortest
    /// round-trip form, never exponent notation). JSON has no NaN or
    /// infinity; the harness never produces one (see `stats::ratio`), and
    /// if it did, 0 is written so the line stays parseable.
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.before_value();
        debug_assert!(v.is_finite(), "non-finite metric value");
        let v = if v.is_finite() { v } else { 0.0 };
        self.out.push_str(&format!("{v}"));
        self
    }

    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Starts the next value or closing bracket on a new line indented
    /// by `indent` spaces (pretty-printing `BENCHMARK.json`; not used on
    /// the result line).
    pub fn newline(&mut self, indent: usize) -> &mut Self {
        self.pending_break = Some(indent);
        self
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub fn finish(&mut self) -> String {
        debug_assert!(self.need_comma.is_empty(), "unbalanced JSON nesting");
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_with_commas_in_the_right_places() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").number(1.5);
        w.key("b").begin_array();
        w.string("x\"y").boolean(true).number(192490.97795989373);
        w.end_array();
        w.key("c").begin_object().end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1.5,"b":["x\"y",true,192490.97795989373],"c":{}}"#
        );
    }

    #[test]
    fn line_breaks_follow_the_comma() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.newline(2).number(1.0);
        w.newline(2).number(2.0);
        w.newline(0).end_array();
        assert_eq!(w.finish(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn large_and_small_numbers_stay_plain_decimals() {
        let mut w = JsonWriter::new();
        w.begin_array().number(1e21).number(1e-7).number(3.0);
        w.end_array();
        let s = w.finish();
        assert!(!s.contains('e') && !s.contains('E'), "{s}");
    }
}
