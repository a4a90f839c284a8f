//! Recursive-descent parser for the application source language.

use std::fmt;

use crate::ast::{AssignKind, Decl, Expr, SourceProgram, Stmt};
use crate::lexer::{tokenize, LexError, Token, TokenKind};

/// Parse error with location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line (0 for end of input).
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "at end of input: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parses a complete source program.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic problems; the error
/// carries the offending line.
///
/// # Example
///
/// ```
/// use dspcc_dfg::parse;
///
/// let p = parse("input u; output y; y = pass(u);")?;
/// assert_eq!(p.decls.len(), 2);
/// assert_eq!(p.stmts.len(), 1);
/// # Ok::<(), dspcc_dfg::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<SourceProgram, ParseError> {
    let mut tokens = tokenize(src)?;
    tokens.reverse();
    let mut p = Parser { tokens };
    p.program()
}

struct Parser {
    /// The tokens not yet consumed, last first: `next` pops them.
    tokens: Vec<Token>,
}

const DECL_KEYWORDS: [&str; 5] = ["input", "output", "signal", "coeff", "const"];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.last()
    }

    fn next(&mut self) -> Option<Token> {
        self.tokens.pop()
    }

    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            line: self.line(),
            message,
        }
    }

    fn expect_token(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(t),
            Some(t) => Err(ParseError {
                line: t.line,
                message: format!("expected {kind}, found {}", t.kind),
            }),
            None => Err(ParseError {
                line: 0,
                message: format!("expected {kind}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                line,
            }) => Ok((s, line)),
            Some(t) => Err(ParseError {
                line: t.line,
                message: format!("expected identifier, found {}", t.kind),
            }),
            None => Err(ParseError {
                line: 0,
                message: "expected identifier".to_owned(),
            }),
        }
    }

    fn expect_number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => Ok(n),
            Some(t) => Err(ParseError {
                line: t.line,
                message: format!("expected number, found {}", t.kind),
            }),
            None => Err(ParseError {
                line: 0,
                message: "expected number".to_owned(),
            }),
        }
    }

    fn program(&mut self) -> Result<SourceProgram, ParseError> {
        let mut decls = Vec::new();
        // Declarations: keyword-led, must precede statements.
        while let Some(Token {
            kind: TokenKind::Ident(word),
            ..
        }) = self.peek()
        {
            if !DECL_KEYWORDS.contains(&word.as_str()) {
                break;
            }
            decls.push(self.decl()?);
        }
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            stmts.push(self.stmt()?);
        }
        Ok(SourceProgram { decls, stmts })
    }

    fn decl(&mut self) -> Result<Decl, ParseError> {
        let (keyword, _) = self.expect_ident()?;
        let (name, _) = self.expect_ident()?;
        let decl = match keyword.as_str() {
            "input" => Decl::Input(name),
            "output" => Decl::Output(name),
            "signal" => Decl::Signal(name),
            "coeff" => {
                self.expect_token(&TokenKind::Equals)?;
                let v = self.expect_number()?;
                Decl::Coeff(name, v)
            }
            "const" => {
                self.expect_token(&TokenKind::Equals)?;
                let v = self.expect_number()?;
                Decl::Const(name, v)
            }
            other => return Err(self.error(format!("unknown declaration keyword `{other}`"))),
        };
        self.expect_token(&TokenKind::Semicolon)?;
        Ok(decl)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let (target, line) = self.expect_ident()?;
        let kind = match self.next() {
            Some(Token {
                kind: TokenKind::Assign,
                ..
            }) => AssignKind::Local,
            Some(Token {
                kind: TokenKind::Equals,
                ..
            }) => AssignKind::Update,
            Some(t) => {
                return Err(ParseError {
                    line: t.line,
                    message: format!("expected `:=` or `=`, found {}", t.kind),
                })
            }
            None => {
                return Err(ParseError {
                    line: 0,
                    message: "expected `:=` or `=`".to_owned(),
                })
            }
        };
        let expr = self.expr()?;
        self.expect_token(&TokenKind::Semicolon)?;
        Ok(Stmt {
            target,
            kind,
            expr,
            line,
        })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => Ok(Expr::Number(n)),
            Some(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => match self.peek().map(|t| &t.kind) {
                Some(TokenKind::At) => {
                    self.next();
                    let depth = self.expect_number()?;
                    if depth.fract() != 0.0 || depth < 1.0 {
                        return Err(self.error(format!(
                            "delay depth must be a positive integer, got {depth}"
                        )));
                    }
                    Ok(Expr::Tap(name, depth as u32))
                }
                Some(TokenKind::LParen) => {
                    self.next();
                    let mut args = vec![self.expr()?];
                    while self.peek().map(|t| &t.kind) == Some(&TokenKind::Comma) {
                        self.next();
                        args.push(self.expr()?);
                    }
                    self.expect_token(&TokenKind::RParen)?;
                    Ok(Expr::Call(name, args))
                }
                _ => Ok(Expr::Ref(name)),
            },
            Some(t) => Err(ParseError {
                line: t.line,
                message: format!("expected expression, found {}", t.kind),
            }),
            None => Err(ParseError {
                line: 0,
                message: "expected expression".to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_treble_section() {
        let src = "
            input u; signal v; output y;
            coeff d1 = 0.1; coeff d2 = 0.2; coeff e1 = 0.3;
            x0 := u@2; /* U delayed over 2 frames */
            m  := mlt(d2, x0);
            a  := pass(m);
            x2 := v@1;
            m  := mlt(e1, x2);
            a  := add(m, a);
            x1 := u@1;
            m  := mlt(d1, x1);
            rd := add_clip(m, a);
            v  = rd;
            y  = rd;
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.decls.len(), 6);
        assert_eq!(p.stmts.len(), 11);
        assert_eq!(p.stmts[0].target, "x0");
        assert_eq!(p.stmts[0].kind, AssignKind::Local);
        assert_eq!(p.stmts[0].expr, Expr::Tap("u".into(), 2));
        assert_eq!(p.stmts[9].kind, AssignKind::Update);
    }

    #[test]
    fn parses_nested_calls() {
        let p = parse("input u; output y; y = add(mlt(u, u), pass(u));").unwrap();
        match &p.stmts[0].expr {
            Expr::Call(op, args) => {
                assert_eq!(op, "add");
                assert!(matches!(&args[0], Expr::Call(m, _) if m == "mlt"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_number_literal_expr() {
        let p = parse("output y; y = 0.5;").unwrap();
        assert_eq!(p.stmts[0].expr, Expr::Number(0.5));
    }

    #[test]
    fn rejects_zero_delay() {
        let err = parse("input u; output y; y = u@0;").unwrap_err();
        assert!(err.message.contains("positive integer"));
    }

    #[test]
    fn rejects_fractional_delay() {
        let err = parse("input u; output y; y = u@1.5;").unwrap_err();
        assert!(err.message.contains("positive integer"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse("input u; output y; y = u").unwrap_err();
        assert!(err.message.contains("`;`"));
        assert_eq!(err.line, 0);
    }

    #[test]
    fn rejects_bad_assignment_operator() {
        let err = parse("input u; output y; y @ u;").unwrap_err();
        assert!(err.message.contains("expected `:=` or `=`"));
    }

    #[test]
    fn rejects_unclosed_call() {
        let err = parse("input u; output y; y = add(u, u;").unwrap_err();
        assert!(err.message.contains("`)`"));
    }

    #[test]
    fn decls_must_precede_statements() {
        // A declaration keyword after a statement is treated as a statement
        // target, which then fails on the missing assignment operator.
        let err = parse("input u; y := u; output y;").unwrap_err();
        assert!(err.message.contains("expected `:=` or `=`"));
    }

    #[test]
    fn coeff_requires_value() {
        let err = parse("coeff d1;").unwrap_err();
        assert!(err.message.contains("`=`"), "{err}");
    }

    #[test]
    fn stmt_line_numbers_recorded() {
        let p = parse("input u;\noutput y;\ny = u;").unwrap();
        assert_eq!(p.stmts[0].line, 3);
    }

    #[test]
    fn error_display_includes_line() {
        let err = parse("input u; output y;\ny = @;").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }
}
