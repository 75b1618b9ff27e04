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
//! Either template streams a token's features straight into the
//! perceptron's scorer, formatted one at a time into one reused buffer.  The
//! tagger reads a `TaggedQuestion`, whose tokens and
//! part-of-speech tags were read off the question once, and writes its BIO
//! tags into it; the assembler groups those tags into spans in one pass and
//! copies a span's words out only when a triple uses them.

use std::cell::OnceCell;
use std::fmt;

use crate::model::TaggedQuestion;
use crate::perceptron::{AveragedPerceptron, FeatureSink, Training};
use crate::tokenizer::is_stop_word;

#[cfg(test)]
mod oracle;

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

/// A span of question tokens, `tokens[start..end]`, that forms one entity
/// or relation phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    kind: SpanKind,
    start: usize,
    end: usize,
}

impl Span {
    /// The span's words as they appear in the question, joined by single
    /// spaces.
    fn text(&self, question: &TaggedQuestion) -> String {
        let words: Vec<&str> = question.tokens[self.start..self.end]
            .iter()
            .map(|t| t.surface.as_str())
            .collect();
        words.join(" ")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    Entity,
    Relation,
}

/// The trainable triple-pattern tagger.
#[derive(Debug, Clone)]
pub(crate) struct TriplePatternGenerator {
    tagger: AveragedPerceptron,
    variant: Seq2SeqVariant,
}

impl TriplePatternGenerator {
    /// Train a tagger of the given variant for `epochs` passes over tagged
    /// corpus questions; an example whose tags do not align with its tokens
    /// is skipped.
    pub(crate) fn train(
        variant: Seq2SeqVariant,
        questions: &[TaggedQuestion],
        epochs: usize,
    ) -> Self {
        let mut training = Training::new(tag_labels());
        for _ in 0..epochs {
            for question in questions {
                if question.tags.len() != question.tokens.len() {
                    continue;
                }
                let mut prev = BioTag::O;
                let mut prev2 = BioTag::O;
                for (i, &truth) in question.tags.iter().enumerate() {
                    features(variant, question, i, prev, prev2, &mut training);
                    training.learn(truth.label());
                    prev2 = prev;
                    // Teacher forcing: condition on the gold previous tag.
                    prev = truth;
                }
            }
        }
        TriplePatternGenerator {
            tagger: training.average(),
            variant,
        }
    }

    /// The variant this generator emulates.
    pub(crate) fn variant(&self) -> Seq2SeqVariant {
        self.variant
    }

    /// Write the BIO tag of every token into `question`.
    pub(crate) fn tag(&self, question: &mut TaggedQuestion) {
        let mut scorer = self.tagger.scorer();
        question.tags.clear();
        let mut prev = BioTag::O;
        let mut prev2 = BioTag::O;
        for i in 0..question.tokens.len() {
            features(self.variant, question, i, prev, prev2, &mut scorer);
            let tag = BioTag::from_label(scorer.predict()).unwrap_or(BioTag::O);
            question.tags.push(tag);
            prev2 = prev;
            prev = tag;
        }
    }
}

/// Feature template for token `i`, streamed into `sink` one feature at
/// a time.  The BART-like variant sees the POS tags read with the question
/// and right context; the GPT-3-like (decoder-only) variant sees only
/// lexical identity and left context.
fn features(
    variant: Seq2SeqVariant,
    question: &TaggedQuestion,
    i: usize,
    prev: BioTag,
    prev2: BioTag,
    sink: &mut impl FeatureSink,
) {
    let TaggedQuestion { tokens, pos, .. } = question;
    let token = &tokens[i];
    sink.feature(format_args!("bias"));
    sink.feature(format_args!("w={}", token.lower));
    sink.feature(format_args!(
        "stem={}",
        crate::embedding::stem(&token.lower)
    ));
    sink.feature(format_args!("cap={}", token.capitalized));
    sink.feature(format_args!("num={}", token.numeric));
    sink.feature(format_args!("first={}", i == 0));
    sink.feature(format_args!("prev_tag={}", prev.label()));
    sink.feature(format_args!("prev2_tag={}", prev2.label()));
    if i > 0 {
        sink.feature(format_args!("w-1={}", tokens[i - 1].lower));
        sink.feature(format_args!("cap-1={}", tokens[i - 1].capitalized));
    } else {
        sink.feature(format_args!("w-1=<s>"));
    }
    sink.feature(format_args!("stop={}", is_stop_word(&token.lower)));

    if variant == Seq2SeqVariant::BartLike {
        sink.feature(format_args!("pos={:?}", pos[i]));
        if i + 1 < tokens.len() {
            sink.feature(format_args!("w+1={}", tokens[i + 1].lower));
            sink.feature(format_args!("cap+1={}", tokens[i + 1].capitalized));
            sink.feature(format_args!("pos+1={:?}", pos[i + 1]));
        } else {
            sink.feature(format_args!("w+1=</s>"));
        }
        if i > 0 {
            sink.feature(format_args!("pos-1={:?}", pos[i - 1]));
        }
        if let Some(suffix) = last_three_bytes(&token.lower) {
            sink.feature(format_args!("suf3={suffix}"));
        }
    }
}

/// The class labels of the tagger.
fn tag_labels() -> Vec<String> {
    BioTag::ALL.iter().map(|t| t.label().to_string()).collect()
}

/// The suffix of a word of three bytes or more that starts at the first
/// character boundary at or after its last three bytes: the last three
/// letters of an ASCII word, fewer when a multi-byte character straddles the
/// cut ("muñoz" → "oz").
fn last_three_bytes(word: &str) -> Option<&str> {
    let mut start = word.len().checked_sub(3)?;
    while !word.is_char_boundary(start) {
        start += 1;
    }
    Some(&word[start..])
}

/// The entity and relation spans of a tagged question, in one pass under
/// one join rule: a tagged token joins the span before it when
///
/// * its tag continues that span's kind (`I-ENT`, `I-REL`) and the span ends
///   right before it, or
/// * both are relations and at most three stop words lie between them
///   ("city" + "on the" + "shore" → "city on the shore"), which recovers the
///   noun-phrase relations the tagger fragments around function words.
///
/// An entity never joins across a gap; any other tagged token opens a span.
fn spans(question: &TaggedQuestion) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for (i, tag) in question.tags.iter().enumerate() {
        let (kind, continues) = match tag {
            BioTag::O => continue,
            BioTag::EntB => (SpanKind::Entity, false),
            BioTag::EntI => (SpanKind::Entity, true),
            BioTag::RelB => (SpanKind::Relation, false),
            BioTag::RelI => (SpanKind::Relation, true),
        };
        match spans.last_mut() {
            Some(last)
                if last.kind == kind
                    && ((continues && last.end == i)
                        || (kind == SpanKind::Relation
                            && i - last.end <= 3
                            && question.tokens[last.end..i]
                                .iter()
                                .all(|t| is_stop_word(&t.lower)))) =>
            {
                last.end = i + 1;
            }
            _ => spans.push(Span {
                kind,
                start: i,
                end: i + 1,
            }),
        }
    }
    spans
}

/// Assemble the triple patterns of a tagged question out of its spans,
/// following the annotation conventions of §4.1.2 (one main unknown;
/// intermediate unknowns for path questions; Boolean questions relate two
/// mentioned entities).
pub(crate) fn assemble_triples(question: &TaggedQuestion) -> Vec<PhraseTriplePattern> {
    let spans = spans(question);
    let (entities, relations): (Vec<&Span>, Vec<&Span>) =
        spans.iter().partition(|s| s.kind == SpanKind::Entity);
    let phrase = |span: &Span| PhraseNode::Phrase(span.text(question));
    let to_entity = |relation: String, entity: &Span| {
        PhraseTriplePattern::new(PhraseNode::Unknown(1), relation, phrase(entity))
    };
    let fallback_text = OnceCell::new();
    let fallback = || {
        fallback_text
            .get_or_init(|| fallback_relation(question))
            .clone()
    };

    // Boolean question with two entities and at most one relation:
    // ⟨E1, rel, E2⟩ (e.g. "Did Tolkien write The Hobbit?").
    if question.is_boolean() && entities.len() >= 2 {
        let relation = relations
            .first()
            .map_or_else(fallback, |r| r.text(question));
        let (subject, object) = (phrase(entities[0]), phrase(entities[1]));
        return vec![PhraseTriplePattern::new(subject, relation, object)];
    }

    // Path question: two relations but only one entity, with the second
    // relation *after* the first and the entity after both
    // ("capital of the country whose president is X" →
    //  ⟨?u1, capital, ?u2⟩, ⟨?u2, president, X⟩).
    if relations.len() >= 2 && entities.len() == 1 && relations[1].start < entities[0].start {
        let (first, second) = (relations[0].text(question), relations[1].text(question));
        return vec![
            PhraseTriplePattern::new(PhraseNode::Unknown(1), first, PhraseNode::Unknown(2)),
            PhraseTriplePattern::new(PhraseNode::Unknown(2), second, phrase(entities[0])),
        ];
    }

    // Only relations, no entity (e.g. "How many seas are there?"):
    // ⟨?u1, rel, ?u2⟩.
    if entities.is_empty() {
        return relations
            .iter()
            .map(|r| {
                PhraseTriplePattern::new(
                    PhraseNode::Unknown(1),
                    r.text(question),
                    PhraseNode::Unknown(2),
                )
            })
            .collect();
    }

    // General star shape: pair every relation with its nearest entity in
    // either direction (entities already claimed by another relation are
    // penalised, so a two-relation question distributes over two entities;
    // the first of equally near ones wins), all sharing the main unknown.
    let mut used = vec![false; entities.len()];
    let mut triples: Vec<PhraseTriplePattern> = relations
        .iter()
        .map(|rel| {
            let nearest = (0..entities.len())
                .min_by_key(|&idx| {
                    entities[idx].start.abs_diff(rel.start) + if used[idx] { 6 } else { 0 }
                })
                .expect("at least one entity");
            used[nearest] = true;
            to_entity(rel.text(question), entities[nearest])
        })
        .collect();
    // Entities no relation claimed (every entity of a question without a
    // relation, e.g. "What is Kaliningrad?") still constrain the unknown;
    // attach them through the fallback relation, derived from leftover
    // content words.
    triples.extend(
        entities
            .iter()
            .zip(&used)
            .filter(|(_, &used)| !used)
            .map(|(entity, _)| to_entity(fallback(), entity)),
    );
    triples
}

/// When the tagger found no usable relation phrase, fall back to the
/// non-stop-word, non-entity content of the question (mirrors how the paper's
/// model copies arbitrary noun phrases as relations).
fn fallback_relation(question: &TaggedQuestion) -> String {
    let words: Vec<&str> = question
        .tokens
        .iter()
        .zip(&question.tags)
        .filter(|(t, tag)| {
            **tag == BioTag::O
                && !is_stop_word(&t.lower)
                && !t.capitalized
                && !crate::tokenizer::QUESTION_WORDS.contains(&t.lower.as_str())
        })
        .map(|(t, _)| t.lower.as_str())
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
    use crate::model::training_questions;
    use crate::tokenizer::Token;
    use proptest::prelude::*;

    fn corpus() -> Vec<TaggedQuestion> {
        training_questions().0
    }

    fn trained() -> TriplePatternGenerator {
        TriplePatternGenerator::train(Seq2SeqVariant::BartLike, &corpus(), 5)
    }

    fn tag(g: &TriplePatternGenerator, question: &str) -> TaggedQuestion {
        let mut question = TaggedQuestion::new(question);
        g.tag(&mut question);
        question
    }

    fn generate(g: &TriplePatternGenerator, question: &str) -> Vec<PhraseTriplePattern> {
        assemble_triples(&tag(g, question))
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
    fn training_learns_to_tag_entities_and_relations() {
        let g = trained();
        let tagged = tag(&g, "Who is the wife of Barack Obama?");
        let position = |word: &str| tagged.tokens.iter().position(|t| t.lower == word);
        // "wife" must be part of a relation span, "Barack Obama" an entity span.
        let wife_idx = position("wife").unwrap();
        assert!(matches!(tagged.tags[wife_idx], BioTag::RelB | BioTag::RelI));
        let barack_idx = position("barack").unwrap();
        assert!(matches!(
            tagged.tags[barack_idx],
            BioTag::EntB | BioTag::EntI
        ));
    }

    #[test]
    fn generates_single_fact_triple() {
        let g = trained();
        let triples = generate(&g, "Who is the spouse of Angela Merkel?");
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
        let triples = generate(
            &g,
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
        let triples = generate(&g, "Did Albert Einstein work at Princeton University?");
        assert_eq!(triples.len(), 1);
        let t = &triples[0];
        assert!(!t.subject.is_unknown());
        assert!(!t.object.is_unknown());
    }

    #[test]
    fn gpt3_variant_also_trains_and_generates() {
        let g = TriplePatternGenerator::train(Seq2SeqVariant::Gpt3Like, &corpus(), 5);
        assert_eq!(g.variant().label(), "GPT-3");
        assert!(!generate(&g, "Who is the author of Dune?").is_empty());
    }

    #[test]
    fn empty_question_yields_no_triples() {
        assert!(generate(&trained(), "").is_empty());
    }

    #[test]
    fn a_misaligned_example_is_skipped_by_training() {
        let mut examples = corpus();
        let aligned = TriplePatternGenerator::train(Seq2SeqVariant::BartLike, &examples, 1);
        let mut misaligned = TaggedQuestion::new("Who is the wife of Barack Obama?");
        misaligned.tags = vec![BioTag::RelB];
        examples.insert(0, misaligned);
        let skipped = TriplePatternGenerator::train(Seq2SeqVariant::BartLike, &examples, 1);
        let question = "Who is the mayor of Berlin?";
        assert_eq!(tag(&skipped, question).tags, tag(&aligned, question).tags);
    }

    #[test]
    fn the_suffix_feature_starts_on_a_character_boundary() {
        assert_eq!(last_three_bytes("obama"), Some("ama"));
        assert_eq!(last_three_bytes("of"), None);
        // 'ñ' straddles the cut: the suffix starts after it.
        assert_eq!(last_three_bytes("muñoz"), Some("oz"));
        // Where the cut already fell on a boundary the suffix is unchanged.
        assert_eq!(last_three_bytes("citroën"), Some("ën"));
        assert_eq!(last_three_bytes("gödel"), Some("del"));
        for variant in [Seq2SeqVariant::BartLike, Seq2SeqVariant::Gpt3Like] {
            let g = TriplePatternGenerator::train(variant, &corpus(), 1);
            assert_eq!(tag(&g, "Who is the wife of Muñoz?").tags.len(), 6);
        }
    }

    #[test]
    fn fallback_relation_uses_content_words() {
        let g = trained();
        // A question with an entity but (likely) no tagged relation phrase.
        let triples = generate(&g, "What is Kaliningrad?");
        assert!(!triples.is_empty());
    }

    fn question(words: &[&str], tags: &[BioTag]) -> TaggedQuestion {
        TaggedQuestion {
            tokens: words.iter().map(|w| Token::new(w)).collect(),
            pos: Vec::new(),
            tags: tags.to_vec(),
        }
    }

    fn texts(question: &TaggedQuestion) -> Vec<(SpanKind, String, usize)> {
        spans(question)
            .iter()
            .map(|s| (s.kind, s.text(question), s.start))
            .collect()
    }

    #[test]
    fn relations_join_across_three_stop_words_and_no_more() {
        use BioTag::{EntB, EntI, RelB, RelI, O};
        let rel = SpanKind::Relation;
        let q = question(
            &["city", "on", "the", "shore", "of", "the", "a", "in", "lake"],
            &[RelB, O, O, RelB, O, O, O, O, RelI],
        );
        assert_eq!(
            texts(&q),
            [
                (rel, "city on the shore".to_string(), 0),
                (rel, "lake".to_string(), 8)
            ]
        );
        // A content word in the gap, or an entity, keeps relations apart.
        let q = question(&["born", "near", "in"], &[RelB, O, RelB]);
        assert_eq!(spans(&q).len(), 2);
        // Entities join only a continuation right after them.
        let q = question(&["New", "York", "of", "City"], &[EntB, EntI, O, EntI]);
        assert_eq!(
            texts(&q),
            [
                (SpanKind::Entity, "New York".to_string(), 0),
                (SpanKind::Entity, "City".to_string(), 3)
            ]
        );
    }

    /// Stop words first, then content words, a capitalised one and a
    /// numeral: a gap drawn from the first eight is all stop words.
    const WORDS: [&str; 12] = [
        "of", "the", "in", "a", "on", "and", "is", "s", "wife", "flows", "Obama", "1984",
    ];

    /// 0–20 tokens: runs of 0–5 `O` words, each followed by 1–3 words of
    /// any tag, so orphan `I-` tags, `I-` tags of the other kind and gaps of
    /// every width up to five all occur.
    fn arb_tagged() -> impl Strategy<Value = (Vec<Token>, Vec<BioTag>)> {
        let gap = prop::collection::vec(0usize..12, 0..6);
        let run = prop::collection::vec((0usize..12, 0usize..5), 1..4);
        prop::collection::vec((gap, run), 0..5).prop_map(|segments| {
            let mut tagged: Vec<(Token, BioTag)> = Vec::new();
            for (gap, run) in segments {
                tagged.extend(gap.into_iter().map(|w| (Token::new(WORDS[w]), BioTag::O)));
                tagged.extend(
                    run.into_iter()
                        .map(|(w, t)| (Token::new(WORDS[w]), BioTag::ALL[t])),
                );
            }
            tagged.truncate(20);
            tagged.into_iter().unzip()
        })
    }

    proptest! {
        #[test]
        fn one_pass_spans_equal_the_two_pass_oracle((tokens, tags) in arb_tagged()) {
            let tagged: Vec<(Token, BioTag)> =
                tokens.iter().cloned().zip(tags.iter().copied()).collect();
            let expected: Vec<(SpanKind, String, usize)> = oracle::collect_spans(&tagged)
                .into_iter()
                .map(|s| (s.kind, s.text, s.start))
                .collect();
            let question = TaggedQuestion { tokens, pos: Vec::new(), tags };
            prop_assert_eq!(texts(&question), expected);
        }
    }
}
