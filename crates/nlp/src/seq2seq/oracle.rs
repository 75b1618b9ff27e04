//! The reference span assembly: the two passes the one-pass
//! [`spans`](super::spans) replaced, kept as they were.  The first groups
//! consecutive tagged tokens into raw spans, finding where a span ends by
//! re-splitting its text; the second merges relation spans separated by at
//! most three stop words.
//!
//! Nothing at run time uses this module.  The property test in [`super`]
//! holds the one-pass spans, with their texts joined, to these over random
//! token and tag sequences, the way `perceptron::oracle` pins the tagger's
//! arithmetic.

use super::{BioTag, SpanKind};
use crate::tokenizer::{is_stop_word, Token};

/// A span with its text built as the passes go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) kind: SpanKind,
    pub(crate) text: String,
    pub(crate) start: usize,
}

/// Group consecutive tagged tokens into entity / relation spans.
///
/// Relation spans separated only by stop words are merged back into one
/// phrase ("city" + "on the" + "shore" → "city on the shore"), recovering
/// noun-phrase relations the tagger fragments around function words.
pub(crate) fn collect_spans(tagged: &[(Token, BioTag)]) -> Vec<Span> {
    let spans = collect_raw_spans(tagged);
    merge_relation_spans(tagged, spans)
}

fn collect_raw_spans(tagged: &[(Token, BioTag)]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for (i, (token, tag)) in tagged.iter().enumerate() {
        match tag {
            BioTag::EntB | BioTag::RelB => {
                let kind = if matches!(tag, BioTag::EntB) {
                    SpanKind::Entity
                } else {
                    SpanKind::Relation
                };
                spans.push(Span {
                    kind,
                    text: token.surface.clone(),
                    start: i,
                });
            }
            BioTag::EntI | BioTag::RelI => {
                let kind = if matches!(tag, BioTag::EntI) {
                    SpanKind::Entity
                } else {
                    SpanKind::Relation
                };
                match spans.last_mut() {
                    Some(last)
                        if last.kind == kind && last.start + count_tokens(&last.text) == i =>
                    {
                        last.text.push(' ');
                        last.text.push_str(&token.surface);
                    }
                    _ => {
                        // Orphan continuation: treat as a new span.
                        spans.push(Span {
                            kind,
                            text: token.surface.clone(),
                            start: i,
                        });
                    }
                }
            }
            BioTag::O => {}
        }
    }
    spans
}

fn count_tokens(text: &str) -> usize {
    text.split_whitespace().count()
}

/// Merge consecutive relation spans whose gap consists only of stop words
/// (and is at most three tokens wide), keeping the intermediate words.
fn merge_relation_spans(tagged: &[(Token, BioTag)], spans: Vec<Span>) -> Vec<Span> {
    let mut merged: Vec<Span> = Vec::new();
    for span in spans {
        if span.kind == SpanKind::Relation {
            if let Some(last) = merged.last_mut() {
                if last.kind == SpanKind::Relation {
                    let last_end = last.start + count_tokens(&last.text);
                    let gap = span.start.saturating_sub(last_end);
                    let gap_is_stop_words = gap <= 3
                        && tagged[last_end..span.start]
                            .iter()
                            .all(|(t, _)| is_stop_word(&t.lower));
                    if gap_is_stop_words {
                        for (t, _) in &tagged[last_end..span.start] {
                            last.text.push(' ');
                            last.text.push_str(&t.surface);
                        }
                        last.text.push(' ');
                        last.text.push_str(&span.text);
                        continue;
                    }
                }
            }
        }
        merged.push(span);
    }
    merged
}
