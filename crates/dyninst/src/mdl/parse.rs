//! MDL parser and semantic checks.

use crate::mdl::ast::{MdlAction, MdlAgg, MdlFile, MdlUnit, MetricDecl, PointActions};
use crate::mdl::lex::{lex, Token, TokenKind};
use std::fmt;

/// A parse or semantic-check failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MdlError {
    /// 1-based source line (0 when end-of-input).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for MdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MDL error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MdlError {}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, MdlError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(s),
            Some(t) => Err(MdlError {
                line: t.line,
                message: format!("expected {what}, found {}", t.kind),
            }),
            None => Err(MdlError {
                line: 0,
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<String, MdlError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Ok(s),
            Some(t) => Err(MdlError {
                line: t.line,
                message: format!("expected {what} string, found {}", t.kind),
            }),
            None => Err(MdlError {
                line: 0,
                message: format!("expected {what} string, found end of input"),
            }),
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> Result<(), MdlError> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(()),
            Some(t) => Err(MdlError {
                line: t.line,
                message: format!("expected {kind}, found {}", t.kind),
            }),
            None => Err(MdlError {
                line: 0,
                message: format!("expected {kind}, found end of input"),
            }),
        }
    }
}

/// Parses MDL source into an [`MdlFile`], running semantic checks.
pub fn parse_mdl(src: &str) -> Result<MdlFile, MdlError> {
    let tokens = lex(src).map_err(|e| MdlError {
        line: e.line,
        message: e.message,
    })?;
    let mut p = Parser { tokens, pos: 0 };
    let mut file = MdlFile::default();
    while p.peek().is_some() {
        let kw = p.expect_ident("'metric'")?;
        if kw != "metric" {
            return Err(MdlError {
                line: p.here().max(1),
                message: format!("expected 'metric', found '{kw}'"),
            });
        }
        file.metrics.push(parse_metric(&mut p)?);
    }
    check(&file)?;
    Ok(file)
}

fn parse_metric(p: &mut Parser) -> Result<MetricDecl, MdlError> {
    let id = p.expect_ident("metric identifier")?;
    p.expect_kind(TokenKind::LBrace)?;
    let mut decl = MetricDecl {
        id,
        name: String::new(),
        units: MdlUnit::Operations,
        aggregate: MdlAgg::Sum,
        level: "Base".to_string(),
        description: String::new(),
        points: Vec::new(),
    };
    loop {
        match p.next() {
            None => {
                return Err(MdlError {
                    line: 0,
                    message: "unterminated metric block".into(),
                })
            }
            Some(Token {
                kind: TokenKind::RBrace,
                ..
            }) => break,
            Some(Token {
                kind: TokenKind::Ident(field),
                line,
            }) => match field.as_str() {
                "name" => {
                    decl.name = p.expect_str("name")?;
                    p.expect_kind(TokenKind::Semi)?;
                }
                "units" => {
                    let u = p.expect_ident("unit")?;
                    decl.units = MdlUnit::from_keyword(&u).ok_or_else(|| MdlError {
                        line,
                        message: format!("unknown unit '{u}'"),
                    })?;
                    p.expect_kind(TokenKind::Semi)?;
                }
                "aggregate" => {
                    let a = p.expect_ident("aggregate")?;
                    decl.aggregate = match a.as_str() {
                        "sum" => MdlAgg::Sum,
                        "average" | "avg" => MdlAgg::Average,
                        other => {
                            return Err(MdlError {
                                line,
                                message: format!("unknown aggregate '{other}'"),
                            })
                        }
                    };
                    p.expect_kind(TokenKind::Semi)?;
                }
                "level" => {
                    decl.level = p.expect_str("level")?;
                    p.expect_kind(TokenKind::Semi)?;
                }
                "description" => {
                    decl.description = p.expect_str("description")?;
                    p.expect_kind(TokenKind::Semi)?;
                }
                "foreach" => {
                    let kw = p.expect_ident("'point'")?;
                    if kw != "point" {
                        return Err(MdlError {
                            line,
                            message: format!("expected 'point' after foreach, found '{kw}'"),
                        });
                    }
                    let point = p.expect_str("point name")?;
                    p.expect_kind(TokenKind::LBrace)?;
                    let mut actions = Vec::new();
                    loop {
                        match p.next() {
                            None => {
                                return Err(MdlError {
                                    line: 0,
                                    message: "unterminated foreach block".into(),
                                })
                            }
                            Some(Token {
                                kind: TokenKind::RBrace,
                                ..
                            }) => break,
                            Some(Token {
                                kind: TokenKind::Ident(act),
                                line,
                            }) => {
                                let action = match act.as_str() {
                                    "incrCounter" => {
                                        let n = match p.next() {
                                            Some(Token {
                                                kind: TokenKind::Int(n),
                                                ..
                                            }) => n,
                                            _ => {
                                                return Err(MdlError {
                                                    line,
                                                    message: "incrCounter needs an integer".into(),
                                                })
                                            }
                                        };
                                        MdlAction::IncrCounter(n)
                                    }
                                    "incrCounterArg" => MdlAction::IncrCounterArg,
                                    "startProcessTimer" => MdlAction::StartProcessTimer,
                                    "stopProcessTimer" => MdlAction::StopProcessTimer,
                                    "startWallTimer" => MdlAction::StartWallTimer,
                                    "stopWallTimer" => MdlAction::StopWallTimer,
                                    "activateSentence" => MdlAction::ActivateSentence,
                                    "deactivateSentence" => MdlAction::DeactivateSentence,
                                    other => {
                                        return Err(MdlError {
                                            line,
                                            message: format!("unknown action '{other}'"),
                                        })
                                    }
                                };
                                p.expect_kind(TokenKind::Semi)?;
                                actions.push(action);
                            }
                            Some(t) => {
                                return Err(MdlError {
                                    line: t.line,
                                    message: format!("expected action, found {}", t.kind),
                                })
                            }
                        }
                    }
                    decl.points.push(PointActions { point, actions });
                }
                other => {
                    return Err(MdlError {
                        line,
                        message: format!("unknown metric field '{other}'"),
                    })
                }
            },
            Some(t) => {
                return Err(MdlError {
                    line: t.line,
                    message: format!("expected field, found {}", t.kind),
                })
            }
        }
    }
    Ok(decl)
}

/// Semantic checks: names present, at least one point, primitive use
/// consistent with units, timer starts matched by stops somewhere.
fn check(file: &MdlFile) -> Result<(), MdlError> {
    for m in &file.metrics {
        let fail = |msg: String| -> Result<(), MdlError> {
            Err(MdlError {
                line: 0,
                message: format!("metric '{}': {msg}", m.id),
            })
        };
        if m.name.is_empty() {
            fail("missing 'name'".into())?;
        }
        if m.points.is_empty() {
            fail("has no 'foreach point' block".into())?;
        }
        let mut starts = 0i64;
        let mut stops = 0i64;
        let mut uses_counter = false;
        let mut uses_timer = false;
        for pa in &m.points {
            for a in &pa.actions {
                match a {
                    MdlAction::IncrCounter(_) | MdlAction::IncrCounterArg => uses_counter = true,
                    MdlAction::StartProcessTimer | MdlAction::StartWallTimer => {
                        uses_timer = true;
                        starts += 1;
                    }
                    MdlAction::StopProcessTimer | MdlAction::StopWallTimer => {
                        uses_timer = true;
                        stops += 1;
                    }
                    MdlAction::ActivateSentence | MdlAction::DeactivateSentence => {}
                }
            }
        }
        if uses_counter && uses_timer {
            fail("mixes counter and timer actions".into())?;
        }
        if m.is_timer() && uses_counter {
            fail("declared in seconds but uses counter actions".into())?;
        }
        if !m.is_timer() && uses_timer {
            fail(format!("declared in {} but uses timer actions", m.units))?;
        }
        if uses_timer && (starts == 0 || stops == 0) {
            fail("timer metric needs both start and stop actions".into())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
// Figure 9 style metrics
metric summation_time {
    name "Summation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent summing arrays.";
    foreach point "cmrts::reduce:sum:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:sum:exit" { stopProcessTimer; }
}

metric p2p_ops {
    name "Point-to-Point Operations";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of inter-node communication operations.";
    foreach point "cmrts::msg:send" { incrCounter 1; }
}
"#;

    #[test]
    fn parses_two_metrics() {
        let f = parse_mdl(SAMPLE).unwrap();
        assert_eq!(f.metrics.len(), 2);
        let st = f.metric("summation_time").unwrap();
        assert_eq!(st.name, "Summation Time");
        assert!(st.is_timer());
        assert_eq!(st.points.len(), 2);
        assert_eq!(st.points[0].actions, vec![MdlAction::StartProcessTimer]);
        let p2p = f.metric("p2p_ops").unwrap();
        assert_eq!(p2p.level, "CMRTS");
        assert_eq!(p2p.points[0].actions, vec![MdlAction::IncrCounter(1)]);
    }

    #[test]
    fn byte_counter_with_arg() {
        let f = parse_mdl(
            r#"metric b { name "Bytes"; units bytes;
               foreach point "p" { incrCounterArg; } }"#,
        )
        .unwrap();
        assert_eq!(
            f.metrics[0].points[0].actions,
            vec![MdlAction::IncrCounterArg]
        );
    }

    #[test]
    fn mapping_instrumentation_actions() {
        let f = parse_mdl(
            r#"metric m { name "M"; units operations;
               foreach point "alloc:return" { activateSentence; incrCounter 1; } }"#,
        )
        .unwrap();
        assert_eq!(
            f.metrics[0].points[0].actions,
            vec![MdlAction::ActivateSentence, MdlAction::IncrCounter(1)]
        );
    }

    #[test]
    fn rejects_missing_name() {
        let e = parse_mdl(r#"metric m { units seconds; foreach point "p" { startProcessTimer; stopProcessTimer; } }"#)
            .unwrap_err();
        assert!(e.message.contains("missing 'name'"));
    }

    #[test]
    fn rejects_metric_without_points() {
        let e = parse_mdl(r#"metric m { name "M"; units operations; }"#).unwrap_err();
        assert!(e.message.contains("no 'foreach point'"));
    }

    #[test]
    fn rejects_unit_primitive_mismatch() {
        let e = parse_mdl(
            r#"metric m { name "M"; units seconds; foreach point "p" { incrCounter 1; } }"#,
        )
        .unwrap_err();
        assert!(e.message.contains("seconds but uses counter"));
        let e2 = parse_mdl(
            r#"metric m { name "M"; units operations;
               foreach point "p" { startProcessTimer; stopProcessTimer; } }"#,
        )
        .unwrap_err();
        assert!(e2.message.contains("uses timer"));
    }

    #[test]
    fn rejects_unbalanced_timer() {
        let e = parse_mdl(
            r#"metric m { name "M"; units seconds; foreach point "p" { startProcessTimer; } }"#,
        )
        .unwrap_err();
        assert!(e.message.contains("start and stop"));
    }

    #[test]
    fn rejects_mixed_primitives() {
        let e = parse_mdl(
            r#"metric m { name "M"; units seconds;
               foreach point "p" { startWallTimer; incrCounter 1; stopWallTimer; } }"#,
        )
        .unwrap_err();
        assert!(e.message.contains("mixes"));
    }

    #[test]
    fn error_locations_are_reported() {
        let e = parse_mdl("metric m {\n  bogusfield 3;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogusfield"));
    }

    #[test]
    fn rejects_top_level_garbage() {
        let e = parse_mdl("widget m {}").unwrap_err();
        assert!(e.message.contains("expected 'metric'"));
    }

    #[test]
    fn defaults_apply() {
        let f =
            parse_mdl(r#"metric m { name "M"; foreach point "p" { incrCounter 1; } }"#).unwrap();
        let m = &f.metrics[0];
        assert_eq!(m.units, MdlUnit::Operations);
        assert_eq!(m.aggregate, MdlAgg::Sum);
        assert_eq!(m.level, "Base");
    }
}
