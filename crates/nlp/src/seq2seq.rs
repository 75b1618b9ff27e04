//! The triple-pattern generator: KGQAn's question-understanding model.
//!
//! The paper formalises question understanding as text generation with a
//! fine-tuned BART or GPT-3 Seq2Seq model (Section 4).  Neither model can be
//! shipped or trained in a pure-Rust, offline reproduction, so this module
//! provides a **trainable substitute with the same contract**:
//!
//! > input: a natural-language question —
//! > output: a sequence of phrase triple patterns whose components are either
//! > phrases from the question or unknowns.
//!
//! The substitute has two stages:
//!
//! 1. a learned **BIO sequence tagger** (an averaged perceptron) labels
//!    each question token as part of an entity phrase, a relation phrase,
//!    or other; it is trained on the annotated corpus of [`crate::corpus`] —
//!    never on any target KG;
//! 2. a deterministic **assembler** connects the tagged spans into triple
//!    patterns with a main unknown (and an intermediate unknown for path
//!    questions), reproducing the annotation conventions of §4.1.2.
//!
//! Two feature-template variants are provided so the Table 4 ablation
//! (BART vs GPT-3 question understanding) has a meaningful counterpart:
//! [`Seq2SeqVariant::BartLike`] uses lexical + part-of-speech + context
//! features, [`Seq2SeqVariant::Gpt3Like`] uses lexical features only.

use std::fmt;

use crate::corpus::AnnotatedQuestion;
use crate::lexicon::pos_tag;
use crate::perceptron::AveragedPerceptron;
use crate::tokenizer::{is_stop_word, tokenize_question, Token};

/// BIO tags assigned to question tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BioTag {
    /// Outside any phrase of interest.
    O,
    /// Beginning of an entity phrase.
    EntB,
    /// Continuation of an entity phrase.
    EntI,
    /// Beginning of a relation phrase.
    RelB,
    /// Continuation of a relation phrase.
    RelI,
}

impl BioTag {
    /// All tags, in a fixed order.
    pub(crate) const ALL: [BioTag; 5] = [
        BioTag::O,
        BioTag::EntB,
        BioTag::EntI,
        BioTag::RelB,
        BioTag::RelI,
    ];

    /// Canonical string form used as perceptron class labels.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            BioTag::O => "O",
            BioTag::EntB => "B-ENT",
            BioTag::EntI => "I-ENT",
            BioTag::RelB => "B-REL",
            BioTag::RelI => "I-REL",
        }
    }

    /// Parse a label back to a tag.
    pub(crate) fn from_label(label: &str) -> Option<BioTag> {
        BioTag::ALL.iter().copied().find(|t| t.label() == label)
    }
}

impl fmt::Display for BioTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One node of a phrase triple pattern: a phrase copied from the question or
/// an unknown (variable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhraseNode {
    /// An unknown, identified by a small integer (`?unknown1` is the main
    /// unknown / intention, higher ids are intermediate variables).
    Unknown(u32),
    /// An entity phrase from the question, e.g. `"Danish Straits"`.
    Phrase(String),
}

impl PhraseNode {
    /// True if this node is an unknown.
    pub fn is_unknown(&self) -> bool {
        matches!(self, PhraseNode::Unknown(_))
    }

    /// The phrase text, if this node is a phrase.
    pub fn phrase(&self) -> Option<&str> {
        match self {
            PhraseNode::Phrase(p) => Some(p),
            PhraseNode::Unknown(_) => None,
        }
    }
}

impl fmt::Display for PhraseNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhraseNode::Unknown(id) => write!(f, "?unknown{id}"),
            PhraseNode::Phrase(p) => write!(f, "{p}"),
        }
    }
}

/// A phrase triple pattern ⟨entityᵃ, relation, entityᵇ⟩ (Definition 4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhraseTriplePattern {
    /// First entity (phrase or unknown).
    pub subject: PhraseNode,
    /// Relation phrase from the question.
    pub relation: String,
    /// Second entity (phrase or unknown).
    pub object: PhraseNode,
}

impl PhraseTriplePattern {
    /// Construct a triple pattern.
    pub fn new(subject: PhraseNode, relation: impl Into<String>, object: PhraseNode) -> Self {
        PhraseTriplePattern {
            subject,
            relation: relation.into(),
            object,
        }
    }

    /// Convenience constructor: main unknown related to a named entity.
    pub fn unknown_to_entity(relation: impl Into<String>, entity: impl Into<String>) -> Self {
        PhraseTriplePattern::new(
            PhraseNode::Unknown(1),
            relation,
            PhraseNode::Phrase(entity.into()),
        )
    }
}

impl fmt::Display for PhraseTriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.subject, self.relation, self.object)
    }
}

/// Which pre-trained-language-model variant the substitute emulates
/// (the Table 4 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Seq2SeqVariant {
    /// Encoder-decoder-like: lexical + POS + bidirectional context features.
    #[default]
    BartLike,
    /// Decoder-only-like: lexical + left-context features only.
    Gpt3Like,
}

impl Seq2SeqVariant {
    /// Human-readable name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Seq2SeqVariant::BartLike => "BART",
            Seq2SeqVariant::Gpt3Like => "GPT-3",
        }
    }
}

/// A tagged span of consecutive question tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    kind: SpanKind,
    text: String,
    start: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    Entity,
    Relation,
}

/// The trainable triple-pattern generator.
#[derive(Debug, Clone)]
pub struct TriplePatternGenerator {
    tagger: AveragedPerceptron,
    variant: Seq2SeqVariant,
}

impl Default for TriplePatternGenerator {
    fn default() -> Self {
        Self::new(Seq2SeqVariant::BartLike)
    }
}

impl TriplePatternGenerator {
    /// Create an untrained generator for the given variant.
    pub fn new(variant: Seq2SeqVariant) -> Self {
        TriplePatternGenerator {
            tagger: AveragedPerceptron::new(
                BioTag::ALL.iter().map(|t| t.label().to_string()).collect(),
            ),
            variant,
        }
    }

    /// The variant this generator emulates.
    pub fn variant(&self) -> Seq2SeqVariant {
        self.variant
    }

    /// Train the tagger on an annotated corpus for `epochs` passes.
    ///
    /// Mirrors Figure 5: the model is trained once, before deployment, on
    /// KG-independent annotated questions.
    pub fn train(&mut self, corpus: &[AnnotatedQuestion], epochs: usize) {
        for _ in 0..epochs {
            for example in corpus {
                let tokens = tokenize_question(&example.question);
                if tokens.len() != example.tags.len() {
                    continue; // malformed example; skip defensively
                }
                let mut prev = BioTag::O;
                let mut prev2 = BioTag::O;
                for (i, token) in tokens.iter().enumerate() {
                    let features = self.features(&tokens, i, prev, prev2);
                    let guess_label = self.tagger.predict(&features);
                    let truth = example.tags[i];
                    self.tagger.update(truth.label(), &guess_label, &features);
                    prev2 = prev;
                    // Teacher forcing: condition on the gold previous tag.
                    prev = truth;
                    let _ = token;
                }
            }
        }
        self.tagger.average();
    }

    /// Tag a question's tokens.
    pub(crate) fn tag(&self, question: &str) -> Vec<(Token, BioTag)> {
        let tokens = tokenize_question(question);
        let mut tags = Vec::with_capacity(tokens.len());
        let mut prev = BioTag::O;
        let mut prev2 = BioTag::O;
        for i in 0..tokens.len() {
            let features = self.features(&tokens, i, prev, prev2);
            let label = self.tagger.predict(&features);
            let tag = BioTag::from_label(&label).unwrap_or(BioTag::O);
            tags.push(tag);
            prev2 = prev;
            prev = tag;
        }
        tokens.into_iter().zip(tags).collect()
    }

    /// Generate the phrase triple patterns for a question (Definition 4.1).
    pub fn generate(&self, question: &str) -> Vec<PhraseTriplePattern> {
        let tagged = self.tag(question);
        let spans = collect_spans(&tagged);
        assemble_triples(question, &tagged, &spans)
    }

    /// Feature template for token `i`.  The BART-like variant sees POS tags
    /// and right context; the GPT-3-like (decoder-only) variant sees only
    /// lexical identity and left context.
    fn features(&self, tokens: &[Token], i: usize, prev: BioTag, prev2: BioTag) -> Vec<String> {
        let token = &tokens[i];
        let mut f = Vec::with_capacity(16);
        f.push("bias".to_string());
        f.push(format!("w={}", token.lower));
        f.push(format!("stem={}", crate::embedding::stem(&token.lower)));
        f.push(format!("cap={}", token.capitalized));
        f.push(format!("num={}", token.numeric));
        f.push(format!("first={}", i == 0));
        f.push(format!("prev_tag={}", prev.label()));
        f.push(format!("prev2_tag={}", prev2.label()));
        if i > 0 {
            f.push(format!("w-1={}", tokens[i - 1].lower));
            f.push(format!("cap-1={}", tokens[i - 1].capitalized));
        } else {
            f.push("w-1=<s>".to_string());
        }
        f.push(format!("stop={}", is_stop_word(&token.lower)));

        if self.variant == Seq2SeqVariant::BartLike {
            let tag = pos_tag(&token.lower, token.capitalized, i == 0);
            f.push(format!("pos={tag:?}"));
            if i + 1 < tokens.len() {
                f.push(format!("w+1={}", tokens[i + 1].lower));
                f.push(format!("cap+1={}", tokens[i + 1].capitalized));
                let next_tag = pos_tag(&tokens[i + 1].lower, tokens[i + 1].capitalized, false);
                f.push(format!("pos+1={next_tag:?}"));
            } else {
                f.push("w+1=</s>".to_string());
            }
            if i > 0 {
                let prev_tag = pos_tag(&tokens[i - 1].lower, tokens[i - 1].capitalized, i == 1);
                f.push(format!("pos-1={prev_tag:?}"));
            }
            if token.lower.len() >= 3 {
                f.push(format!("suf3={}", &token.lower[token.lower.len() - 3..]));
            }
        }
        f
    }
}

/// Group consecutive tagged tokens into entity / relation spans.
///
/// Relation spans separated only by stop words are merged back into one
/// phrase ("city" + "on the" + "shore" → "city on the shore"), recovering
/// noun-phrase relations the tagger fragments around function words.
fn collect_spans(tagged: &[(Token, BioTag)]) -> Vec<Span> {
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

/// True if the question is a Boolean (yes/no) question: it starts with an
/// auxiliary verb rather than a wh-word or imperative.
fn is_boolean_question(question: &str) -> bool {
    let first = tokenize_question(question)
        .into_iter()
        .next()
        .map(|t| t.lower)
        .unwrap_or_default();
    matches!(
        first.as_str(),
        "is" | "are" | "was" | "were" | "did" | "does" | "do" | "has" | "have" | "can" | "could"
    )
}

/// Assemble triple patterns out of the tagged spans, following the annotation
/// conventions of §4.1.2 (one main unknown; intermediate unknowns for path
/// questions; Boolean questions relate two mentioned entities).
fn assemble_triples(
    question: &str,
    tagged: &[(Token, BioTag)],
    spans: &[Span],
) -> Vec<PhraseTriplePattern> {
    let entities: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Entity)
        .collect();
    let relations: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Relation)
        .collect();

    let mut triples = Vec::new();

    // Boolean question with two entities and at most one relation:
    // ⟨E1, rel, E2⟩ (e.g. "Did Tolkien write The Hobbit?").
    if is_boolean_question(question) && entities.len() >= 2 {
        let relation = relations
            .first()
            .map(|r| r.text.clone())
            .unwrap_or_else(|| fallback_relation(tagged));
        triples.push(PhraseTriplePattern::new(
            PhraseNode::Phrase(entities[0].text.clone()),
            relation,
            PhraseNode::Phrase(entities[1].text.clone()),
        ));
        return triples;
    }

    // Path question: two relations but only one entity, with the second
    // relation *after* the first and the entity after both
    // ("capital of the country whose president is X" →
    //  ⟨?u1, capital, ?u2⟩, ⟨?u2, president, X⟩).
    if relations.len() >= 2 && entities.len() == 1 && relations[1].start < entities[0].start {
        triples.push(PhraseTriplePattern::new(
            PhraseNode::Unknown(1),
            relations[0].text.clone(),
            PhraseNode::Unknown(2),
        ));
        triples.push(PhraseTriplePattern::new(
            PhraseNode::Unknown(2),
            relations[1].text.clone(),
            PhraseNode::Phrase(entities[0].text.clone()),
        ));
        return triples;
    }

    // General star shape: pair every relation with its nearest entity in
    // either direction (entities already claimed by another relation are
    // penalised, so a two-relation question distributes over two entities),
    // all sharing the main unknown.
    if !relations.is_empty() && !entities.is_empty() {
        let mut used = vec![false; entities.len()];
        for rel in &relations {
            let mut best: Option<(usize, usize)> = None; // (distance, entity idx)
            for (idx, ent) in entities.iter().enumerate() {
                let distance = ent.start.abs_diff(rel.start);
                let penalty = if used[idx] { 6 } else { 0 };
                let score = distance + penalty;
                if best.is_none_or(|(d, _)| score < d) {
                    best = Some((score, idx));
                }
            }
            if let Some((_, idx)) = best {
                used[idx] = true;
                triples.push(PhraseTriplePattern::new(
                    PhraseNode::Unknown(1),
                    rel.text.clone(),
                    PhraseNode::Phrase(entities[idx].text.clone()),
                ));
            }
        }
        // Entities not linked to any relation (more entities than relations)
        // still constrain the unknown; attach them with the fallback relation.
        for (idx, ent) in entities.iter().enumerate() {
            if !used[idx] && !triples.is_empty() {
                triples.push(PhraseTriplePattern::new(
                    PhraseNode::Unknown(1),
                    fallback_relation(tagged),
                    PhraseNode::Phrase(ent.text.clone()),
                ));
            }
        }
        return triples;
    }

    // Only entities, no relation (e.g. "What is Kaliningrad?"): relate the
    // unknown to the entity through a generic relation derived from leftover
    // content words.
    if !entities.is_empty() {
        for ent in &entities {
            triples.push(PhraseTriplePattern::new(
                PhraseNode::Unknown(1),
                fallback_relation(tagged),
                PhraseNode::Phrase(ent.text.clone()),
            ));
        }
        return triples;
    }

    // Only relations, no entity (e.g. "How many seas are there?"):
    // ⟨?u1, rel, ?u2⟩.
    for rel in &relations {
        triples.push(PhraseTriplePattern::new(
            PhraseNode::Unknown(1),
            rel.text.clone(),
            PhraseNode::Unknown(2),
        ));
    }
    triples
}

/// When the tagger found no usable relation phrase, fall back to the
/// non-stop-word, non-entity content of the question (mirrors how the paper's
/// model copies arbitrary noun phrases as relations).
fn fallback_relation(tagged: &[(Token, BioTag)]) -> String {
    let words: Vec<String> = tagged
        .iter()
        .filter(|(t, tag)| {
            *tag == BioTag::O
                && !is_stop_word(&t.lower)
                && !t.capitalized
                && !crate::tokenizer::QUESTION_WORDS.contains(&t.lower.as_str())
        })
        .map(|(t, _)| t.lower.clone())
        .collect();
    if words.is_empty() {
        "related to".to_string()
    } else {
        words.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::training_corpus;

    fn trained() -> TriplePatternGenerator {
        let corpus = training_corpus();
        let mut generator = TriplePatternGenerator::new(Seq2SeqVariant::BartLike);
        generator.train(&corpus, 5);
        generator
    }

    #[test]
    fn bio_tag_label_roundtrip() {
        for tag in BioTag::ALL {
            assert_eq!(BioTag::from_label(tag.label()), Some(tag));
        }
        assert_eq!(BioTag::from_label("nonsense"), None);
    }

    #[test]
    fn phrase_node_and_pattern_display() {
        let tp = PhraseTriplePattern::unknown_to_entity("flow", "Danish Straits");
        assert_eq!(tp.to_string(), "⟨?unknown1, flow, Danish Straits⟩");
        assert!(tp.subject.is_unknown());
        assert_eq!(tp.object.phrase(), Some("Danish Straits"));
    }

    #[test]
    fn default_generator_is_bart_like() {
        let g = TriplePatternGenerator::default();
        assert_eq!(g.variant(), Seq2SeqVariant::BartLike);
    }

    #[test]
    fn training_learns_to_tag_entities_and_relations() {
        let g = trained();
        let tagged = g.tag("Who is the wife of Barack Obama?");
        let tags: Vec<BioTag> = tagged.iter().map(|(_, t)| *t).collect();
        // "wife" must be part of a relation span, "Barack Obama" an entity span.
        let wife_idx = tagged.iter().position(|(t, _)| t.lower == "wife").unwrap();
        assert!(matches!(tags[wife_idx], BioTag::RelB | BioTag::RelI));
        let barack_idx = tagged
            .iter()
            .position(|(t, _)| t.lower == "barack")
            .unwrap();
        assert!(matches!(tags[barack_idx], BioTag::EntB | BioTag::EntI));
    }

    #[test]
    fn generates_single_fact_triple() {
        let g = trained();
        let triples = g.generate("Who is the spouse of Angela Merkel?");
        assert!(!triples.is_empty());
        let t = &triples[0];
        assert!(t.subject.is_unknown() || t.object.is_unknown());
        let phrase = t
            .object
            .phrase()
            .or_else(|| t.subject.phrase())
            .unwrap_or("");
        assert!(phrase.contains("Angela") || phrase.contains("Merkel"));
    }

    #[test]
    fn generates_two_triples_for_running_example_style_question() {
        let g = trained();
        let triples = g.generate(
            "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore",
        );
        assert!(
            triples.len() >= 2,
            "expected at least two triple patterns, got {triples:?}"
        );
        // Both triples share the main unknown.
        assert!(triples.iter().all(|t| t.subject == PhraseNode::Unknown(1)));
        let entities: Vec<&str> = triples.iter().filter_map(|t| t.object.phrase()).collect();
        assert!(entities.iter().any(|e| e.contains("Danish")));
        assert!(entities.iter().any(|e| e.contains("Kaliningrad")));
    }

    #[test]
    fn boolean_question_relates_two_entities() {
        let g = trained();
        let triples = g.generate("Did Albert Einstein work at Princeton University?");
        assert_eq!(triples.len(), 1);
        let t = &triples[0];
        assert!(!t.subject.is_unknown());
        assert!(!t.object.is_unknown());
    }

    #[test]
    fn gpt3_variant_also_trains_and_generates() {
        let corpus = training_corpus();
        let mut g = TriplePatternGenerator::new(Seq2SeqVariant::Gpt3Like);
        g.train(&corpus, 5);
        assert_eq!(g.variant().label(), "GPT-3");
        let triples = g.generate("Who is the author of Dune?");
        assert!(!triples.is_empty());
    }

    #[test]
    fn empty_question_yields_no_triples() {
        let g = trained();
        assert!(g.generate("").is_empty());
    }

    #[test]
    fn fallback_relation_uses_content_words() {
        let g = trained();
        // A question with an entity but (likely) no tagged relation phrase.
        let triples = g.generate("What is Kaliningrad?");
        assert!(!triples.is_empty());
    }
}
