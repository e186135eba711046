//! The one lexer under every directive front end.
//!
//! The paper's claim (Section 4, Section 8) is that the directive is the
//! host-language-independent part; what differs between the Python-like
//! listings, `#pragma mdh` over C loops and `!$mdh` over Fortran `do`
//! nests is spelling. That spelling is a [`Dialect`]: three `const`
//! tables, chosen by which entry point was called (never by a caller-set
//! value). Every token carries its line *and* column, so every front end
//! reports real positions.

use mdh_core::error::MdhError;

/// A lexical token with its source position (both 1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// The dialect's directive marker (`@mdh`, `#pragma mdh`, `!$mdh`) at
    /// the start of a line.
    Sentinel,
    // punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Dot,
    Assign,     // =
    PlusAssign, // += (recognised so we can give the paper's "use =" error)
    PlusPlus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    /// `&&`, `and`, `.and.`
    And,
    /// `||`, `or`, `.or.`
    Or,
    /// `not`, `.not.` — binds looser than comparison, as Python and
    /// Fortran define it.
    Not,
    /// `!` — C's unary negation, binds tighter than every binary operator.
    Bang,
    // layout
    Newline,
    Indent,
    Dedent,
    Eof,
}

impl TokenKind {
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Sentinel => "directive sentinel".into(),
            TokenKind::Newline => "end of line".into(),
            TokenKind::Indent => "indent".into(),
            TokenKind::Dedent => "dedent".into(),
            TokenKind::Eof => "end of input".into(),
            other => format!("'{}'", symbol(other)),
        }
    }
}

fn symbol(k: &TokenKind) -> &'static str {
    match k {
        TokenKind::LParen => "(",
        TokenKind::RParen => ")",
        TokenKind::LBracket => "[",
        TokenKind::RBracket => "]",
        TokenKind::LBrace => "{",
        TokenKind::RBrace => "}",
        TokenKind::Comma => ",",
        TokenKind::Colon => ":",
        TokenKind::Semi => ";",
        TokenKind::Dot => ".",
        TokenKind::Assign => "=",
        TokenKind::PlusAssign => "+=",
        TokenKind::PlusPlus => "++",
        TokenKind::Plus => "+",
        TokenKind::Minus => "-",
        TokenKind::Star => "*",
        TokenKind::Slash => "/",
        TokenKind::Percent => "%",
        TokenKind::EqEq => "==",
        TokenKind::NotEq => "!=",
        TokenKind::Lt => "<",
        TokenKind::Le => "<=",
        TokenKind::Gt => ">",
        TokenKind::Ge => ">=",
        TokenKind::And => "and",
        TokenKind::Or => "or",
        TokenKind::Not => "not",
        TokenKind::Bang => "!",
        _ => "?",
    }
}

/// Which layout tokens a dialect's statements are delimited by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `Newline` after every logical line plus `Indent` / `Dedent`, all
    /// suppressed inside brackets (so `@mdh( ... )` may span lines).
    Indented,
    /// `Newline` after every line; indentation is not significant.
    Lines,
    /// Free-form statements (`;`, `{}`): a `Newline` only ends the
    /// directive line.
    Free,
}

/// How a dialect spells `buffer[i][j]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscripts {
    /// `a[i, j]`; a second bracket subscripts the *element* (`p[n]['f']`).
    Comma,
    /// `a[i][j]`: consecutive brackets are one multi-index.
    Chained,
    /// `a(i, j)`: a parenthesised name that is not an intrinsic.
    Paren,
}

/// Everything that differs between the host languages below the statement
/// grammars. DESIGN.md "Front ends: one grammar, three dialects" explains
/// why exactly these fields exist.
#[derive(Debug)]
pub struct Dialect {
    /// Directive marker, recognised at the start of a line; words may be
    /// separated by any run of blanks.
    pub sentinel: &'static str,
    pub line_comment: &'static str,
    pub layout: Layout,
    /// Trailing character that continues a *directive* line onto the next
    /// (which may repeat the sentinel).
    pub continuation: Option<u8>,
    /// Sentinel, keywords, word operators, type and intrinsic names match
    /// ASCII-case-insensitively.
    pub fold_case: bool,
    /// Operators spelled as words; everything else is common punctuation.
    pub word_ops: &'static [(&'static str, TokenKind)],
    /// `1.0f` is a float literal.
    pub float_suffix: bool,
    pub subscripts: Subscripts,
    /// First index of an array and first value of a loop variable.
    pub index_base: i64,
    /// Host type name → directive type name; `None`: names pass through to
    /// the analysis (which also knows the environment's record types).
    pub types: Option<&'static [(&'static str, &'static str)]>,
    /// Host function name → directive intrinsic; `None`: every call
    /// passes through.
    pub intrinsics: Option<&'static [(&'static str, &'static str)]>,
}

/// The paper's listings: `@mdh( ... )` over `def` + `for i in range(N):`.
pub const PYTHON: Dialect = Dialect {
    sentinel: "@mdh",
    line_comment: "#",
    layout: Layout::Indented,
    continuation: None,
    fold_case: false,
    word_ops: &[
        ("and", TokenKind::And),
        ("or", TokenKind::Or),
        ("not", TokenKind::Not),
    ],
    float_suffix: false,
    subscripts: Subscripts::Comma,
    index_base: 0,
    types: None,
    intrinsics: None,
};

/// `#pragma mdh` over `for (int i = 0; i < N; i++)`.
pub const C: Dialect = Dialect {
    sentinel: "#pragma mdh",
    line_comment: "//",
    layout: Layout::Free,
    continuation: Some(b'\\'),
    fold_case: false,
    word_ops: &[],
    float_suffix: true,
    subscripts: Subscripts::Chained,
    index_base: 0,
    types: Some(&[
        ("float", "fp32"),
        ("double", "fp64"),
        ("int", "int32"),
        ("int32_t", "int32"),
        ("long", "int64"),
        ("int64_t", "int64"),
        ("char", "char"),
        ("bool", "bool"),
        ("_Bool", "bool"),
    ]),
    intrinsics: Some(&[
        ("fabsf", "abs"),
        ("fabs", "abs"),
        ("abs", "abs"),
        ("sqrtf", "sqrt"),
        ("sqrt", "sqrt"),
        ("expf", "exp"),
        ("exp", "exp"),
        ("logf", "log"),
        ("log", "log"),
        ("fminf", "min"),
        ("fmin", "min"),
        ("min", "min"),
        ("fmaxf", "max"),
        ("fmax", "max"),
        ("max", "max"),
    ]),
};

/// `!$mdh` over `do i = 1, N ... end do`.
pub const FORTRAN: Dialect = Dialect {
    sentinel: "!$mdh",
    line_comment: "!",
    layout: Layout::Lines,
    continuation: Some(b'&'),
    fold_case: true,
    word_ops: &[
        (".and.", TokenKind::And),
        (".or.", TokenKind::Or),
        (".not.", TokenKind::Not),
        ("/=", TokenKind::NotEq),
    ],
    float_suffix: false,
    subscripts: Subscripts::Paren,
    index_base: 1,
    types: Some(&[
        ("real", "fp32"),
        ("real4", "fp32"),
        ("double", "fp64"),
        ("real8", "fp64"),
        ("integer", "int32"),
        ("integer4", "int32"),
        ("integer8", "int64"),
        ("logical", "bool"),
        ("character", "char"),
    ]),
    intrinsics: Some(&[
        ("abs", "abs"),
        ("sqrt", "sqrt"),
        ("exp", "exp"),
        ("log", "log"),
        ("min", "min"),
        ("max", "max"),
    ]),
};

impl Dialect {
    /// `a == b` under this dialect's case rule.
    pub fn same_word(&self, a: &str, b: &str) -> bool {
        if self.fold_case {
            a.eq_ignore_ascii_case(b)
        } else {
            a == b
        }
    }

    /// Look `name` up in one of the dialect's name tables.
    pub fn lookup(
        &self,
        table: &'static [(&'static str, &'static str)],
        name: &str,
    ) -> Option<&'static str> {
        table
            .iter()
            .find(|(host, _)| self.same_word(host, name))
            .map(|&(_, mapped)| mapped)
    }

    /// Does `text` begin with `word` (under the case rule) at a word
    /// boundary? Returns the matched length.
    fn starts_with_word(&self, text: &[u8], word: &str) -> Option<usize> {
        let head = text.get(..word.len())?;
        let same = if self.fold_case {
            head.eq_ignore_ascii_case(word.as_bytes())
        } else {
            head == word.as_bytes()
        };
        let open_ended = word.bytes().last().is_some_and(is_ident_byte)
            && text.get(word.len()).copied().is_some_and(is_ident_byte);
        (same && !open_ended).then_some(word.len())
    }

    /// Length of the sentinel at the start of `text` (leading blanks
    /// already removed), if it is there.
    fn sentinel_len(&self, text: &[u8]) -> Option<usize> {
        let mut pos = 0;
        for (n, word) in self.sentinel.split(' ').enumerate() {
            let blanks = text[pos..].iter().take_while(|&&b| is_blank(b)).count();
            if n > 0 && blanks == 0 {
                return None;
            }
            pos += blanks;
            pos += self.starts_with_word(&text[pos..], word)?;
        }
        Some(pos)
    }

    /// Does some line of `src` start with this dialect's sentinel?
    pub fn marks(&self, src: &str) -> bool {
        src.lines()
            .any(|l| self.sentinel_len(l.trim_start().as_bytes()).is_some())
    }
}

fn is_blank(b: u8) -> bool {
    b == b' ' || b == b'\t' || b == b'\r'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenise Python-dialect source (the directive language of the paper's
/// listings, and the textual DSL).
pub fn tokenize(src: &str) -> Result<Vec<Token>, MdhError> {
    tokenize_as(src, &PYTHON)
}

/// Tokenise `src` under dialect `d`.
pub fn tokenize_as(src: &str, d: &Dialect) -> Result<Vec<Token>, MdhError> {
    let mut tokens = Vec::new();
    // indentation of every open block; column 0 is never popped
    let mut indents: Vec<usize> = Vec::new();
    // bracket depth: `Layout::Indented` ignores newlines and indentation
    // inside brackets, which lets `@mdh( ... )` span lines as in the listings
    let mut depth = 0usize;
    // inside a directive that the previous line continued
    let mut continued = false;
    let mut last_line = 0;

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        last_line = line;
        let bytes = raw.as_bytes();
        let mut i = bytes.iter().take_while(|&&b| is_blank(b)).count();
        let sentinel = d.sentinel_len(&bytes[i..]);
        let blank =
            i == bytes.len() || (sentinel.is_none() && raw[i..].starts_with(d.line_comment));
        if blank && !continued {
            continue; // blank lines don't affect indentation
        }
        if d.layout == Layout::Indented && depth == 0 {
            let open = |levels: &Vec<usize>| levels.last().copied().unwrap_or(0);
            if i > open(&indents) {
                indents.push(i);
                tokens.push(tok(TokenKind::Indent, line, 1));
            } else {
                while open(&indents) > i {
                    indents.pop();
                    tokens.push(tok(TokenKind::Dedent, line, 1));
                }
                if open(&indents) != i {
                    return Err(err(line, 1, "inconsistent indentation"));
                }
            }
        }
        let mut in_directive = continued;
        if let Some(n) = sentinel {
            if !continued {
                tokens.push(tok(TokenKind::Sentinel, line, i + 1));
            }
            in_directive = true;
            i += n;
        }
        continued = false;

        while i < bytes.len() {
            let b = bytes[i];
            let col = i + 1;
            if is_blank(b) {
                i += 1;
                continue;
            }
            if raw[i..].starts_with(d.line_comment) {
                i = bytes.len();
                break;
            }
            if Some(b) == d.continuation
                && in_directive
                && bytes[i + 1..].iter().all(|&b| is_blank(b))
            {
                continued = true;
                i = bytes.len();
                break;
            }
            if let Some((n, kind)) = d
                .word_ops
                .iter()
                .find_map(|(w, k)| Some((d.starts_with_word(&bytes[i..], w)?, k)))
            {
                tokens.push(tok(kind.clone(), line, col));
                i += n;
                continue;
            }
            let next = bytes.get(i + 1).copied();
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            let (kind, len) = match b {
                b'(' => (TokenKind::LParen, 1),
                b')' => (TokenKind::RParen, 1),
                b'[' => (TokenKind::LBracket, 1),
                b']' => (TokenKind::RBracket, 1),
                b'{' => (TokenKind::LBrace, 1),
                b'}' => (TokenKind::RBrace, 1),
                b',' => (TokenKind::Comma, 1),
                b':' => (TokenKind::Colon, 1),
                b';' => (TokenKind::Semi, 1),
                b'.' => (TokenKind::Dot, 1),
                b'+' if next == Some(b'=') => (TokenKind::PlusAssign, 2),
                b'+' if next == Some(b'+') => (TokenKind::PlusPlus, 2),
                b'+' => (TokenKind::Plus, 1),
                b'-' => (TokenKind::Minus, 1),
                b'*' => (TokenKind::Star, 1),
                b'/' => (TokenKind::Slash, 1),
                b'%' => (TokenKind::Percent, 1),
                b'=' if next == Some(b'=') => (TokenKind::EqEq, 2),
                b'=' => (TokenKind::Assign, 1),
                b'!' if next == Some(b'=') => (TokenKind::NotEq, 2),
                b'!' => (TokenKind::Bang, 1),
                b'<' if next == Some(b'=') => (TokenKind::Le, 2),
                b'<' => (TokenKind::Lt, 1),
                b'>' if next == Some(b'=') => (TokenKind::Ge, 2),
                b'>' => (TokenKind::Gt, 1),
                b'&' if next == Some(b'&') => (TokenKind::And, 2),
                b'|' if next == Some(b'|') => (TokenKind::Or, 2),
                b'\'' | b'"' => {
                    let body = &bytes[i + 1..];
                    let Some(n) = body.iter().position(|&c| c == b) else {
                        return Err(err(line, col, "unterminated string"));
                    };
                    // both ends sit on an ASCII quote: char boundaries
                    (TokenKind::Str(raw[i + 1..i + 1 + n].to_string()), n + 2)
                }
                b'0'..=b'9' => number(&raw[i..], d).map_err(|m| err(line, col, &m))?,
                _ if b.is_ascii_alphabetic() || b == b'_' => {
                    let n = bytes[i..].iter().take_while(|&&c| is_ident_byte(c)).count();
                    (TokenKind::Ident(raw[i..i + n].to_string()), n)
                }
                _ => {
                    // `i` follows ASCII bytes only: a char boundary
                    let c = raw[i..].chars().next().unwrap_or('?');
                    return Err(err(line, col, &format!("unexpected character '{c}'")));
                }
            };
            tokens.push(tok(kind, line, col));
            i += len;
        }
        let ends_line = match d.layout {
            Layout::Indented => depth == 0,
            Layout::Lines => true,
            Layout::Free => in_directive,
        };
        if ends_line && !continued {
            tokens.push(tok(TokenKind::Newline, line, i + 1));
        }
    }
    if continued {
        return Err(err(
            last_line,
            1,
            "directive continues past the end of input",
        ));
    }
    // close open blocks
    for _ in &indents {
        tokens.push(tok(TokenKind::Dedent, last_line + 1, 1));
    }
    tokens.push(tok(TokenKind::Eof, last_line + 1, 1));
    Ok(tokens)
}

/// Lex the number at the start of `text` (which begins with a digit):
/// digits, an optional fraction, an optional exponent and — where the
/// dialect has one — a float suffix.
fn number(text: &str, d: &Dialect) -> Result<(TokenKind, usize), String> {
    let bytes = text.as_bytes();
    let at = |j: usize| bytes.get(j).copied().unwrap_or(b' ');
    let digits = |j: usize| bytes[j..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut j = digits(0);
    let mut is_float = false;
    // `1.5`, `1.`, C's `1.f` — but `1.and.x` and `a[1].f` keep their dot
    let suffix_at =
        |j: usize| d.float_suffix && matches!(at(j), b'f' | b'F') && !is_ident_byte(at(j + 1));
    let after_dot = at(j + 1);
    if at(j) == b'.'
        && (after_dot.is_ascii_digit()
            || !(is_ident_byte(after_dot) || after_dot == b'.')
            || suffix_at(j + 1))
    {
        is_float = true;
        j += 1;
        j += digits(j);
    }
    if matches!(at(j), b'e' | b'E') {
        let sign = usize::from(matches!(at(j + 1), b'+' | b'-'));
        if at(j + 1 + sign).is_ascii_digit() {
            is_float = true;
            j += 1 + sign;
            j += digits(j);
        }
    }
    let literal = &text[..j];
    if suffix_at(j) {
        is_float = true;
        j += 1;
    }
    let kind = if is_float {
        TokenKind::Float(
            literal
                .parse()
                .map_err(|_| format!("bad float '{literal}'"))?,
        )
    } else {
        TokenKind::Int(
            literal
                .parse()
                .map_err(|_| format!("bad integer '{literal}'"))?,
        )
    };
    Ok((kind, j))
}

fn tok(kind: TokenKind, line: usize, col: usize) -> Token {
    Token { kind, line, col }
}

fn err(line: usize, col: usize, message: &str) -> MdhError {
    MdhError::Parse {
        line,
        col,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn kinds_as(src: &str, d: &Dialect) -> Vec<TokenKind> {
        let toks = tokenize_as(src, d).unwrap();
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_tokens() {
        let ks = kinds("a = b[i, k] * 2");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Assign,
                TokenKind::Ident("b".into()),
                TokenKind::LBracket,
                TokenKind::Ident("i".into()),
                TokenKind::Comma,
                TokenKind::Ident("k".into()),
                TokenKind::RBracket,
                TokenKind::Star,
                TokenKind::Int(2),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let src = "for i in range(4):\n    x = 1\n    y = 2\nz = 3\n";
        let ks = kinds(src);
        let indents = ks.iter().filter(|k| **k == TokenKind::Indent).count();
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn nested_dedents_closed_at_eof() {
        let src = "a:\n  b:\n    c = 1\n";
        let ks = kinds(src);
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn multiline_parens_no_newlines() {
        let src = "@mdh( out( w = Buffer[fp32] ),\n      inp( v = Buffer[fp32] ) )\n";
        let ks = kinds(src);
        assert_eq!(ks[0], TokenKind::Sentinel);
        let newlines = ks.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 1, "newline inside parens must be suppressed");
    }

    #[test]
    fn comments_stripped() {
        let ks = kinds("x = 1  # a comment\n");
        assert!(ks.contains(&TokenKind::Int(1)));
        assert!(!ks
            .iter()
            .any(|k| matches!(k, TokenKind::Ident(s) if s == "comment")));
    }

    #[test]
    fn comment_markers_inside_strings_are_text() {
        assert!(kinds("x = lhs['a#b']").contains(&TokenKind::Str("a#b".into())));
        assert!(kinds_as("x = l['a//b'];", &C).contains(&TokenKind::Str("a//b".into())));
        assert!(kinds_as("x = l('a!b')", &FORTRAN).contains(&TokenKind::Str("a!b".into())));
    }

    #[test]
    fn plus_assign_recognised() {
        let ks = kinds("w = 0\nw += 1\n");
        assert!(ks.contains(&TokenKind::PlusAssign));
    }

    #[test]
    fn floats_and_comparisons() {
        let ks = kinds("if a >= 2.5 != b:");
        assert!(ks.contains(&TokenKind::Ge));
        assert!(ks.contains(&TokenKind::Float(2.5)));
        assert!(ks.contains(&TokenKind::NotEq));
    }

    #[test]
    fn one_number_grammar_in_every_dialect() {
        for d in [&PYTHON, &C, &FORTRAN] {
            let ks = kinds_as("x = 1e-3 + 2.5E2 + 7", d);
            assert!(ks.contains(&TokenKind::Float(1e-3)), "{d:?}");
            assert!(ks.contains(&TokenKind::Float(250.0)), "{d:?}");
            assert!(ks.contains(&TokenKind::Int(7)), "{d:?}");
        }
        // the suffix is C's alone; elsewhere `f` starts an identifier
        assert!(kinds_as("x = 0.5f;", &C).contains(&TokenKind::Float(0.5)));
        assert!(kinds_as("x = 2.f * y;", &C).contains(&TokenKind::Float(2.0)));
        assert!(kinds("x = 0.5f").contains(&TokenKind::Ident("f".into())));
        // a dot that belongs to what follows stays a dot
        assert_eq!(
            kinds_as("1.and.x", &FORTRAN)[..3],
            [
                TokenKind::Int(1),
                TokenKind::And,
                TokenKind::Ident("x".into())
            ]
        );
        assert!(kinds("p[1].f").contains(&TokenKind::Dot));
    }

    #[test]
    fn word_operators_share_tokens() {
        let py = kinds("a and b or not c");
        let c = kinds_as("a && b || !c", &C);
        let f = kinds_as("a .And. b .OR. .not. c /= d", &FORTRAN);
        for ks in [&py, &c, &f] {
            assert!(ks.contains(&TokenKind::And) && ks.contains(&TokenKind::Or));
        }
        assert!(py.contains(&TokenKind::Not) && f.contains(&TokenKind::Not));
        assert!(c.contains(&TokenKind::Bang));
        assert!(f.contains(&TokenKind::NotEq));
        // a word operator is a whole word
        assert!(kinds("android").contains(&TokenKind::Ident("android".into())));
    }

    #[test]
    fn directive_lines_and_continuations() {
        let c = kinds_as("#pragma  mdh out(w) \\\n  inp(v)\nfor (;;) {\n}\n", &C);
        assert_eq!(c[0], TokenKind::Sentinel);
        let newlines = c.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 1, "only the directive line ends in a newline");
        let f = kinds_as("!$MDH out(w) &\n!$mdh inp(v)  ! why\ny(i) = 1\n", &FORTRAN);
        assert_eq!(f.iter().filter(|k| **k == TokenKind::Sentinel).count(), 1);
        assert_eq!(f.iter().filter(|k| **k == TokenKind::Newline).count(), 2);
        assert!(tokenize_as("#pragma mdh out(w) \\", &C).is_err());
        assert!(tokenize_as("!$mdh out(w) &\n", &FORTRAN).is_err());
        // off a directive line the continuation character is just a character
        assert!(tokenize_as("y(i) = 1 &\n", &FORTRAN).is_err());
    }

    #[test]
    fn columns_are_recorded() {
        let toks = tokenize_as("  y(i) = x(i)", &FORTRAN).unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 3));
        assert_eq!(toks[4].kind, TokenKind::Assign);
        assert_eq!(toks[4].col, 8);
    }

    #[test]
    fn strings() {
        let ks = kinds("x = 'id_measure'");
        assert!(ks.contains(&TokenKind::Str("id_measure".into())));
    }

    #[test]
    fn inconsistent_indent_errors() {
        let src = "a:\n    b = 1\n  c = 2\n";
        assert!(tokenize(src).is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("x = 'oops").is_err());
    }

    #[test]
    fn sentinel_detection() {
        assert!(C.marks("// hi\n  #pragma mdh out(w)\n"));
        assert!(!C.marks("#pragma omp parallel\n"));
        assert!(FORTRAN.marks("!$MDH out(w)"));
        assert!(!FORTRAN.marks("! $mdh\n!$mdhx\n"));
    }
}
