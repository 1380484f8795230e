//! Item-level scanning on top of the lexer: code tokens annotated with
//! the enclosing function, `#[cfg(test)]` membership, and attribute
//! context, plus `// lint:allow(…)` suppression comments.
//!
//! This is deliberately not a parser. It tracks just enough structure
//! for the lints: brace nesting, `mod`/`fn` item names, whether a
//! `#[cfg(test)]` (or `#[cfg(any/all(… test …))]`) attribute covers the
//! current position, and which attributes immediately precede a
//! `struct`/`enum` declaration.

use crate::lexer::{lex, Class, Span};

/// One code token: a word (identifier/keyword/number) or a single
/// punctuation byte.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// The token text.
    pub text: &'a str,
    /// Byte offset into the file.
    pub offset: usize,
    /// Whether this is a word (vs punctuation).
    pub word: bool,
    /// 1-indexed line number.
    pub line: u32,
    /// Whether a `#[cfg(test)]` region covers this token.
    pub in_test: bool,
    /// Index into [`Scanned::fns`] of the innermost enclosing function.
    pub func: Option<u32>,
}

/// A `// lint:allow(LINT_ID, reason)` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The suppressed lint id.
    pub lint: String,
    /// The justification after the comma (empty if missing).
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// First line of code the suppression covers (the comment's own
    /// line, or the next line holding code when the comment stands
    /// alone).
    pub covers_line: u32,
}

/// A `pub struct`/`pub enum` declaration with its immediate attributes.
#[derive(Debug, Clone)]
pub struct TypeDecl {
    /// The type name.
    pub name: String,
    /// Line of the declaration.
    pub line: u32,
    /// Attribute words seen since the previous item boundary (e.g.
    /// `must_use`, `derive`, `cfg`).
    pub attrs: Vec<String>,
    /// Whether the declaration is `pub`.
    pub public: bool,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct Scanned<'a> {
    /// The source text.
    pub src: &'a str,
    /// Lexer spans covering every byte (for coverage tests).
    pub spans: Vec<Span>,
    /// Code tokens in order, with context.
    pub toks: Vec<Tok<'a>>,
    /// Function names, `module::path::fn` style, indexed by [`Tok::func`].
    pub fns: Vec<String>,
    /// Suppression comments found anywhere in the file.
    pub suppressions: Vec<Suppression>,
    /// Struct/enum declarations with attribute context.
    pub types: Vec<TypeDecl>,
    /// Byte offsets of line starts (line N starts at `lines[N-1]`).
    lines: Vec<usize>,
}

impl Scanned<'_> {
    /// 1-indexed line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> u32 {
        match self.lines.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }
}

/// One entry on the brace-scope stack.
#[derive(Debug)]
struct Scope {
    /// `Some(name)` for `mod name { … }`.
    module: Option<String>,
    /// `Some(index into fns)` for a function body.
    func: Option<u32>,
    /// Whether this scope (or an enclosing one) is `#[cfg(test)]`.
    test: bool,
}

/// Scan `src` into classified tokens with item context.
pub fn scan(src: &str) -> Scanned<'_> {
    let spans = lex(src);
    let mut lines = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            lines.push(i + 1);
        }
    }
    let line_of = |offset: usize, lines: &[usize]| -> u32 {
        match lines.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    };

    // Pass 1: raw code tokens (no context yet) + suppressions.
    let mut raw: Vec<(usize, usize, bool)> = Vec::new(); // (start, end, word)
    let mut suppressions = Vec::new();
    for span in &spans {
        match span.class {
            Class::Code => {
                let bytes = src.as_bytes();
                let mut i = span.start;
                while i < span.end {
                    let b = bytes[i];
                    if b.is_ascii_whitespace() {
                        i += 1;
                    } else if is_word_byte(b) {
                        let start = i;
                        while i < span.end && is_word_byte(bytes[i]) {
                            i += 1;
                        }
                        raw.push((start, i, true));
                    } else {
                        raw.push((i, i + 1, false));
                        i += 1;
                    }
                }
            }
            Class::LineComment | Class::BlockComment | Class::DocComment => {
                let text = &src[span.start..span.end];
                if let Some(pos) = text.find("lint:allow(") {
                    let after = &text[pos + "lint:allow(".len()..];
                    if let Some(close) = after.find(')') {
                        let inner = &after[..close];
                        let (lint, reason) = match inner.split_once(',') {
                            Some((l, r)) => (l.trim().to_string(), r.trim().to_string()),
                            None => (inner.trim().to_string(), String::new()),
                        };
                        suppressions.push(Suppression {
                            lint,
                            reason,
                            line: line_of(span.start + pos, &lines),
                            covers_line: 0, // fixed up below
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 2: context. Walk the raw tokens tracking scopes.
    let mut toks: Vec<Tok<'_>> = Vec::with_capacity(raw.len());
    let mut fns: Vec<String> = Vec::new();
    let mut types: Vec<TypeDecl> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();

    // Pending item state between an item keyword and its `{` or `;`.
    let mut pending_mod: Option<String> = None;
    let mut pending_fn: Option<String> = None;
    // `#[cfg(test)]` seen since the last item boundary.
    let mut pending_test = false;
    // Attribute words since the last item boundary (for `must_use`).
    let mut pending_attrs: Vec<String> = Vec::new();
    // Attribute bracket tracking: inside `#[ … ]`.
    let mut attr_depth = 0usize;
    let mut attr_has_cfg = false;
    let mut attr_words: Vec<String> = Vec::new();
    // Keywords expecting a name next.
    let mut expect: Option<&'static str> = None;
    let mut last_was_pub = false;
    let mut pending_pub = false;
    // Unclosed `(` and `[` outside attributes: a `;` inside them (an
    // array type `[f64; 4]` in a signature) does not end an item.
    let mut nest = 0usize;

    let mut i = 0usize;
    while i < raw.len() {
        let (start, end, word) = raw[i];
        let text = &src[start..end];
        let in_test = pending_test || stack.iter().any(|s| s.test);
        let func = stack.iter().rev().find_map(|s| s.func);
        toks.push(Tok {
            text,
            offset: start,
            word,
            line: line_of(start, &lines),
            in_test,
            func,
        });

        if attr_depth > 0 {
            // Inside `#[…]`: collect words, watch for `cfg` + `test`.
            if word {
                attr_words.push(text.to_string());
                if text == "cfg" {
                    attr_has_cfg = true;
                }
            } else if text == "[" || text == "(" {
                attr_depth += 1;
            } else if text == "]" || text == ")" {
                attr_depth -= 1;
                if attr_depth == 0 {
                    let is_cfg_test = attr_has_cfg && attr_words.iter().any(|w| w == "test");
                    // A bare `#[test]` (or `#[bench]`) marks test code too.
                    let is_test_attr = matches!(
                        attr_words.first().map(String::as_str),
                        Some("test" | "bench")
                    );
                    if is_cfg_test || is_test_attr {
                        pending_test = true;
                    }
                    pending_attrs.append(&mut attr_words);
                    attr_has_cfg = false;
                }
            }
            i += 1;
            continue;
        }

        if !word {
            match text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                _ => {}
            }
        }
        match (word, text) {
            (false, "#") => {
                // Attribute opener if followed by `[` (or `![`, which we
                // treat the same — inner attrs are rare and harmless).
                let mut j = i + 1;
                if j < raw.len() && src[raw[j].0..raw[j].1].eq("!") {
                    j += 1;
                }
                if j < raw.len() && src[raw[j].0..raw[j].1].eq("[") {
                    attr_depth = 1;
                    attr_words.clear();
                    attr_has_cfg = false;
                    // Emit the skipped tokens with current context.
                    for &(s, e, w) in &raw[i + 1..=j] {
                        toks.push(Tok {
                            text: &src[s..e],
                            offset: s,
                            word: w,
                            line: line_of(s, &lines),
                            in_test,
                            func,
                        });
                    }
                    i = j + 1;
                    continue;
                }
            }
            (true, "pub") => {
                last_was_pub = true;
                i += 1;
                continue;
            }
            (true, "mod") => expect = Some("mod"),
            (true, "fn") => expect = Some("fn"),
            (true, "struct") | (true, "enum") => {
                expect = Some("type");
                pending_pub = last_was_pub;
            }
            (true, name) if expect.is_some() => match expect.take() {
                Some("mod") => pending_mod = Some(name.to_string()),
                Some("fn") => {
                    let path: Vec<&str> = stack
                        .iter()
                        .filter_map(|s| s.module.as_deref())
                        .chain(std::iter::once(name))
                        .collect();
                    pending_fn = Some(path.join("::"));
                }
                Some("type") => {
                    types.push(TypeDecl {
                        name: name.to_string(),
                        line: line_of(start, &lines),
                        attrs: pending_attrs.clone(),
                        public: pending_pub,
                    });
                }
                _ => {}
            },
            (false, "{") => {
                let scope_test = pending_test;
                let func_idx = pending_fn.take().map(|name| {
                    fns.push(name);
                    (fns.len() - 1) as u32
                });
                stack.push(Scope {
                    module: pending_mod.take(),
                    func: func_idx,
                    test: scope_test,
                });
                pending_test = false;
                pending_attrs.clear();
                expect = None;
            }
            (false, "}") => {
                stack.pop();
            }
            // A non-word right after `mod`/`fn` means it was not an item
            // declaration (`fn(i32)` pointer types, macro fragments).
            (false, _) if matches!(expect, Some("mod") | Some("fn")) => {
                expect = None;
                pending_fn = None;
                pending_mod = None;
            }
            (false, ";") if nest == 0 => {
                // Item ended without a body (`mod foo;`, trait fn, …).
                pending_mod = None;
                pending_fn = None;
                pending_test = false;
                pending_attrs.clear();
                expect = None;
            }
            _ => {}
        }
        if !(word && text == "pub") {
            last_was_pub = false;
        }
        i += 1;
    }

    // Fix up suppression coverage: a suppression covers its own line,
    // or — when no code token shares that line — the next line that has
    // a code token.
    for sup in &mut suppressions {
        let own_line_code = toks.iter().any(|t| t.line == sup.line);
        sup.covers_line = if own_line_code {
            sup.line
        } else {
            toks.iter()
                .map(|t| t.line)
                .filter(|&l| l > sup.line)
                .min()
                .unwrap_or(sup.line + 1)
        };
    }

    Scanned {
        src,
        spans,
        toks,
        fns,
        suppressions,
        types,
        lines,
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = r#"
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn more_lib() { z.unwrap(); }
"#;
        let s = scan(src);
        let unwraps: Vec<_> = s.toks.iter().filter(|t| t.text == "unwrap").collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!unwraps[0].in_test);
        assert!(unwraps[1].in_test);
        assert!(!unwraps[2].in_test);
    }

    #[test]
    fn cfg_all_test_is_marked() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() { a.unwrap(); } }";
        let s = scan(src);
        assert!(s
            .toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .all(|t| t.in_test));
    }

    #[test]
    fn function_paths_include_modules() {
        let src = "mod outer { mod inner { fn target_with() { vec.push(1); } } }";
        let s = scan(src);
        let push = s.toks.iter().find(|t| t.text == "push").unwrap();
        let f = push.func.unwrap();
        assert_eq!(s.fns[f as usize], "outer::inner::target_with");
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_the_item() {
        let src =
            "fn pack(b: &mut Vec<[f64; 4]>) -> [u8; 2] { vec.push(1); }\nfn decl(x: [u8; 4]);";
        let s = scan(src);
        let push = s.toks.iter().find(|t| t.text == "push").unwrap();
        assert_eq!(s.fns[push.func.unwrap() as usize], "pack");
        assert_eq!(
            s.fns,
            ["pack"],
            "a bodiless fn is still not a function scope"
        );
    }

    #[test]
    fn suppressions_are_parsed_with_reason_and_coverage() {
        let src = "// lint:allow(NO_PANIC_SURFACE, poisoning is unrecoverable)\nlet x = a.unwrap();\nlet y = b.unwrap(); // lint:allow(NO_PANIC_SURFACE, same line)\n";
        let s = scan(src);
        assert_eq!(s.suppressions.len(), 2);
        assert_eq!(s.suppressions[0].lint, "NO_PANIC_SURFACE");
        assert_eq!(s.suppressions[0].reason, "poisoning is unrecoverable");
        assert_eq!(s.suppressions[0].covers_line, 2);
        assert_eq!(s.suppressions[1].covers_line, 3);
    }

    #[test]
    fn type_decls_capture_attributes() {
        let src = "#[must_use]\n#[derive(Debug)]\npub struct PipelineBuilder { x: u32 }\npub struct Bare;";
        let s = scan(src);
        assert_eq!(s.types.len(), 2);
        assert!(s.types[0].attrs.iter().any(|a| a == "must_use"));
        assert!(s.types[1].attrs.is_empty());
        assert!(s.types[1].public);
    }

    #[test]
    fn attribute_cfg_not_test_does_not_mark() {
        let src = "#[cfg(feature = \"extra\")]\nfn f() { a.unwrap(); }";
        let s = scan(src);
        assert!(s
            .toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .all(|t| !t.in_test));
    }
}
