//! A hand-rolled parser for the EDL subset used by the paper's applications.
//!
//! Grammar (informally):
//!
//! ```text
//! enclave {
//!     trusted {
//!         public void ecall_main([in, size=cfg_len] const uint8_t* cfg, size_t cfg_len);
//!     };
//!     untrusted {
//!         size_t ocall_read([out, size=cap] uint8_t* buf, size_t cap);
//!     };
//! };
//! ```
//!
//! `//` and `/* */` comments are skipped. Pointer parameters must carry an
//! attribute list (`[user_check]`, `[in]`, `[out]`, `[in, out]`, with an
//! optional `size=`/`count=`), mirroring the real edger8r's refusal to guess.

use core::fmt;

use super::ast::{Direction, EdgeFn, Edl, Param, ParamKind, SizeSpec};

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdlError {
    /// Line the error was detected on.
    pub(crate) line: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl fmt::Display for EdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for EdlError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Star,
    Eq,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> EdlError {
        EdlError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), EdlError> {
        loop {
            match self.src.get(self.pos) {
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(&c) = self.src.get(self.pos) {
                        self.pos += 1;
                        if c == b'\n' {
                            self.line += 1;
                            break;
                        }
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'*') => {
                    self.pos += 2;
                    loop {
                        match self.src.get(self.pos) {
                            Some(b'*') if self.src.get(self.pos + 1) == Some(&b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(b'\n') => {
                                self.line += 1;
                                self.pos += 1;
                            }
                            Some(_) => self.pos += 1,
                            None => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next(&mut self) -> Result<Option<(Tok, usize)>, EdlError> {
        self.skip_trivia()?;
        let line = self.line;
        let Some(&c) = self.src.get(self.pos) else {
            return Ok(None);
        };
        let tok = match c {
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.src.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
                let text = core::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
                Tok::Number(
                    text.parse()
                        .map_err(|_| self.error(format!("number out of range: {text}")))?,
                )
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    self.pos += 1;
                }
                Tok::Ident(
                    core::str::from_utf8(&self.src[start..self.pos])
                        .expect("ascii idents")
                        .to_owned(),
                )
            }
            other => return Err(self.error(format!("unexpected character `{}`", other as char))),
        };
        Ok(Some((tok, line)))
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> EdlError {
        EdlError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Result<Tok, EdlError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), EdlError> {
        let got = self.bump()?;
        if &got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected {what}, found {got:?}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, EdlError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.error(format!("expected {what}, found {other:?}")))
            }
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), EdlError> {
        let s = self.expect_ident(&format!("`{kw}`"))?;
        if s == kw {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected `{kw}`, found `{s}`")))
        }
    }

    fn parse_enclave(&mut self) -> Result<Edl, EdlError> {
        self.expect_keyword("enclave")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut edl = Edl::default();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => break,
                Some(Tok::Ident(s)) if s == "trusted" => {
                    self.bump()?;
                    edl.trusted.extend(self.parse_block()?);
                }
                Some(Tok::Ident(s)) if s == "untrusted" => {
                    self.bump()?;
                    edl.untrusted.extend(self.parse_block()?);
                }
                _ => return Err(self.error("expected `trusted`, `untrusted` or `}`")),
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.expect(&Tok::Semi, "`;`")?;
        if self.pos != self.toks.len() {
            return Err(self.error("trailing input after enclave declaration"));
        }
        Ok(edl)
    }

    fn parse_block(&mut self) -> Result<Vec<EdgeFn>, EdlError> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut fns = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            fns.push(self.parse_fn()?);
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(fns)
    }

    fn parse_fn(&mut self) -> Result<EdgeFn, EdlError> {
        let mut public = false;
        if self.peek() == Some(&Tok::Ident("public".into())) {
            public = true;
            self.bump()?;
        }
        let (ret_type, _) = self.parse_type()?;
        let returns_value = ret_type != "void";
        let name = self.expect_ident("function name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                params.push(self.parse_param()?);
                match self.bump()? {
                    Tok::Comma => continue,
                    Tok::RParen => {
                        self.pos -= 1;
                        break;
                    }
                    other => {
                        self.pos -= 1;
                        return Err(self.error(format!("expected `,` or `)`, found {other:?}")));
                    }
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(EdgeFn {
            name,
            public,
            params,
            returns_value,
        })
    }

    /// Parses an optional attribute list + type + name.
    fn parse_param(&mut self) -> Result<Param, EdlError> {
        let attrs = if self.peek() == Some(&Tok::LBracket) {
            Some(self.parse_attrs()?)
        } else {
            None
        };
        let (c_type, is_pointer) = self.parse_type()?;
        let name = self.expect_ident("parameter name")?;

        if is_pointer {
            let attrs = attrs.ok_or_else(|| {
                self.error(format!(
                    "pointer parameter `{name}` requires an attribute ([in]/[out]/[user_check])"
                ))
            })?;
            let direction = match (attrs.user_check, attrs.is_in, attrs.is_out) {
                (true, false, false) => Direction::UserCheck,
                (false, true, false) => Direction::In,
                (false, false, true) => Direction::Out,
                (false, true, true) => Direction::InOut,
                (true, _, _) => {
                    return Err(self.error(format!(
                        "`{name}`: user_check cannot be combined with in/out"
                    )))
                }
                (false, false, false) => {
                    return Err(self.error(format!(
                        "pointer parameter `{name}` needs in/out/user_check"
                    )))
                }
            };
            let elem = sizeof_pointee(&c_type);
            let size = match (attrs.size, attrs.count) {
                (Some(s), None) => s,
                (None, Some(SizeSpec::Fixed(n))) => SizeSpec::Fixed(n * elem),
                (None, Some(spec @ SizeSpec::Param(_))) => spec,
                (Some(_), Some(_)) => {
                    return Err(self.error(format!(
                        "`{name}`: specify either size= or count=, not both"
                    )))
                }
                (None, None) => SizeSpec::Fixed(elem.max(1)),
            };
            Ok(Param {
                name,
                c_type,
                kind: ParamKind::Buffer { direction, size },
            })
        } else {
            if attrs.is_some() {
                return Err(self.error(format!(
                    "value parameter `{name}` cannot carry buffer attributes"
                )));
            }
            let bytes = sizeof_value(&c_type)
                .ok_or_else(|| self.error(format!("unknown value type `{c_type}`")))?;
            Ok(Param {
                name,
                c_type,
                kind: ParamKind::Value { bytes },
            })
        }
    }

    fn parse_attrs(&mut self) -> Result<Attrs, EdlError> {
        self.expect(&Tok::LBracket, "`[`")?;
        let mut attrs = Attrs::default();
        loop {
            let key = self.expect_ident("attribute")?;
            match key.as_str() {
                "in" => attrs.is_in = true,
                "out" => attrs.is_out = true,
                "user_check" => attrs.user_check = true,
                "size" | "count" => {
                    self.expect(&Tok::Eq, "`=`")?;
                    let spec = match self.bump()? {
                        Tok::Number(n) => SizeSpec::Fixed(n),
                        Tok::Ident(p) => SizeSpec::Param(p),
                        other => {
                            self.pos -= 1;
                            return Err(self.error(format!("expected size value, found {other:?}")));
                        }
                    };
                    if key == "size" {
                        attrs.size = Some(spec);
                    } else {
                        attrs.count = Some(spec);
                    }
                }
                other => return Err(self.error(format!("unknown attribute `{other}`"))),
            }
            match self.bump()? {
                Tok::Comma => continue,
                Tok::RBracket => break,
                other => {
                    self.pos -= 1;
                    return Err(self.error(format!("expected `,` or `]`, found {other:?}")));
                }
            }
        }
        Ok(attrs)
    }

    /// Parses a C type: idents (`const unsigned long`) plus optional stars.
    /// Returns (canonical spelling, is_pointer).
    fn parse_type(&mut self) -> Result<(String, bool), EdlError> {
        let mut words: Vec<String> = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if is_type_word(s) || (words.is_empty() && s != "public") => {
                    // First word is always consumed as part of the type; the
                    // *last* ident before `(`/`,` is the name, handled by the
                    // caller, so stop when the next-next token says so.
                    let s = s.clone();
                    // Lookahead: if the following token is an ident too, the
                    // current one is part of the type; if it is `(`/`,`/`)`,
                    // the current ident is actually the name — stop.
                    let next_is_ident =
                        matches!(self.toks.get(self.pos + 1), Some((Tok::Ident(_), _)))
                            || matches!(self.toks.get(self.pos + 1), Some((Tok::Star, _)));
                    if words.is_empty() || is_type_word(&s) || next_is_ident {
                        self.bump()?;
                        words.push(s);
                    } else {
                        break;
                    }
                }
                Some(Tok::Star) => {
                    self.bump()?;
                    words.push("*".into());
                }
                _ => break,
            }
            // A `*` can only be followed by the parameter name or more stars.
            if words.last().map(String::as_str) != Some("*")
                && !matches!(self.peek(), Some(Tok::Ident(_)) | Some(Tok::Star))
            {
                break;
            }
            // Stop when exactly one ident remains before a non-ident token:
            // that ident is the parameter/function name.
            if let (Some(Tok::Ident(_)), Some((next2, _))) =
                (self.peek(), self.toks.get(self.pos + 1))
            {
                if !matches!(next2, Tok::Ident(_) | Tok::Star) {
                    break;
                }
            }
        }
        if words.is_empty() {
            return Err(self.error("expected a type"));
        }
        let is_pointer = words.iter().any(|w| w == "*");
        let spelling = words
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(" ")
            .replace(" *", "*");
        Ok((spelling, is_pointer))
    }
}

#[derive(Debug, Default)]
struct Attrs {
    is_in: bool,
    is_out: bool,
    user_check: bool,
    size: Option<SizeSpec>,
    count: Option<SizeSpec>,
}

fn is_type_word(s: &str) -> bool {
    matches!(
        s,
        "const"
            | "unsigned"
            | "signed"
            | "struct"
            | "void"
            | "char"
            | "short"
            | "int"
            | "long"
            | "float"
            | "double"
    ) || sizeof_value(s).is_some()
}

/// Byte size of a by-value C type; `None` for unknown spellings.
fn sizeof_value(c_type: &str) -> Option<u64> {
    let t = c_type.replace("const", "");
    let t = t.trim();
    Some(match t {
        "void" => 0,
        "char" | "int8_t" | "uint8_t" | "bool" => 1,
        "short" | "int16_t" | "uint16_t" | "unsigned short" => 2,
        "int" | "int32_t" | "uint32_t" | "unsigned" | "unsigned int" | "float" => 4,
        "long" | "unsigned long" | "int64_t" | "uint64_t" | "size_t" | "ssize_t" | "time_t"
        | "double" | "intptr_t" | "uintptr_t" | "off_t" | "pid_t" => 8,
        _ => return None,
    })
}

/// Element size of a pointer's pointee (for `count=`); unknown types count
/// as opaque bytes.
fn sizeof_pointee(c_type: &str) -> u64 {
    let base = c_type.replace(['*'], "");
    sizeof_value(base.trim()).filter(|&b| b > 0).unwrap_or(1)
}

/// Parses EDL source text.
///
/// # Errors
///
/// Returns an [`EdlError`] with line information for lexical or syntactic
/// problems, missing pointer attributes, or unknown value types.
///
/// # Examples
///
/// ```
/// use sgx_sdk::edl::parse_edl;
///
/// # fn main() -> Result<(), sgx_sdk::edl::EdlError> {
/// let edl = parse_edl(
///     "enclave {
///          trusted {
///              public void ecall_go([in, size=n] const uint8_t* data, size_t n);
///          };
///          untrusted {
///              void ocall_log([in, size=len] const char* msg, size_t len);
///          };
///      };",
/// )?;
/// assert_eq!(edl.trusted.len(), 1);
/// assert_eq!(edl.untrusted[0].name, "ocall_log");
/// # Ok(())
/// # }
/// ```
pub fn parse_edl(src: &str) -> Result<Edl, EdlError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next()? {
        toks.push(t);
    }
    Parser { toks, pos: 0 }.parse_enclave()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_enclave() {
        let edl = parse_edl("enclave { trusted { public void f(); }; };").unwrap();
        assert_eq!(edl.trusted.len(), 1);
        assert!(edl.trusted[0].public);
        assert!(edl.trusted[0].params.is_empty());
        assert!(!edl.trusted[0].returns_value);
    }

    #[test]
    fn parses_buffer_attributes() {
        let edl = parse_edl(
            "enclave { untrusted {
                size_t ocall_read([out, size=cap] uint8_t* buf, size_t cap);
                void ocall_send([in, out, size=n] uint8_t* b, size_t n);
                void ocall_raw([user_check] void* p);
             }; };",
        )
        .unwrap();
        let read = &edl.untrusted[0];
        assert!(read.returns_value);
        assert!(matches!(
            read.params[0].kind,
            ParamKind::Buffer {
                direction: Direction::Out,
                size: SizeSpec::Param(ref p)
            } if p == "cap"
        ));
        assert!(matches!(
            edl.untrusted[1].params[0].kind,
            ParamKind::Buffer {
                direction: Direction::InOut,
                ..
            }
        ));
        assert!(matches!(
            edl.untrusted[2].params[0].kind,
            ParamKind::Buffer {
                direction: Direction::UserCheck,
                size: SizeSpec::Fixed(1)
            }
        ));
    }

    #[test]
    fn comments_are_skipped() {
        let edl =
            parse_edl("// header\nenclave { /* block\ncomment */ trusted { public void f(); }; };")
                .unwrap();
        assert_eq!(edl.trusted[0].name, "f");
    }

    #[test]
    fn const_pointer_types_parse() {
        let edl = parse_edl(
            "enclave { trusted {
                public void f([in, size=len] const uint8_t* data, size_t len);
             }; };",
        )
        .unwrap();
        let p = &edl.trusted[0].params[0];
        assert_eq!(p.name, "data");
        assert!(p.c_type.contains("uint8_t"));
    }

    #[test]
    fn pointer_without_attribute_is_rejected() {
        let err = parse_edl("enclave { trusted { public void f(uint8_t* p); }; };").unwrap_err();
        assert!(err.message.contains("requires an attribute"), "{err}");
    }

    #[test]
    fn user_check_with_in_is_rejected() {
        let err =
            parse_edl("enclave { trusted { public void f([user_check, in] uint8_t* p); }; };")
                .unwrap_err();
        assert!(err.message.contains("user_check"), "{err}");
    }

    #[test]
    fn count_scales_by_element_size() {
        let edl =
            parse_edl("enclave { trusted { public void f([in, count=4] const uint64_t* v); }; };")
                .unwrap();
        assert!(matches!(
            edl.trusted[0].params[0].kind,
            ParamKind::Buffer {
                size: SizeSpec::Fixed(32),
                ..
            }
        ));
    }

    #[test]
    fn error_reports_line() {
        let err =
            parse_edl("enclave {\n  trusted {\n    public void f(???);\n  };\n};").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(parse_edl("enclave { /* oops").is_err());
    }

    #[test]
    fn many_functions_parse() {
        // A taste of the scale the porting framework generates (93-144 fns).
        let mut src = String::from("enclave { untrusted {\n");
        for i in 0..120 {
            src.push_str(&format!(
                "void ocall_{i}([in, size=l{i}] const uint8_t* b{i}, size_t l{i});\n"
            ));
        }
        src.push_str("}; };");
        let edl = parse_edl(&src).unwrap();
        assert_eq!(edl.untrusted.len(), 120);
    }
}
