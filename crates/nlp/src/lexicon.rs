//! A lightweight lexicon-based part-of-speech tagger.
//!
//! KGQAn only needs part-of-speech information for one heuristic: *"the
//! first noun in the question is the semantic type"* (§4.3), for which the
//! original system calls the AllenNLP constituency parser.  A closed-class
//! lexicon plus suffix heuristics is an adequate substitute: closed-class
//! words (determiners, prepositions, pronouns, auxiliaries, question words)
//! are enumerable, verbs and adverbs are recognised by suffix or by a list of
//! frequent forms, and everything else defaults to noun — which is exactly
//! the right default for the first-noun heuristic.  A question is tagged once,
//! when it is read; the BART-like tagger's features read the same tags.

use crate::tokenizer::QUESTION_WORDS;

/// Coarse part-of-speech tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosTag {
    /// Common noun.
    Noun,
    /// Proper noun (capitalised, not sentence-initial closed-class).
    ProperNoun,
    /// Verb (including auxiliaries).
    Verb,
    /// Adjective.
    Adjective,
    /// Adverb.
    Adverb,
    /// Preposition or subordinating conjunction.
    Preposition,
    /// Determiner / article.
    Determiner,
    /// Pronoun.
    Pronoun,
    /// Coordinating conjunction.
    Conjunction,
    /// Interrogative (wh-word or imperative question verb).
    QuestionWord,
    /// Cardinal number.
    Number,
    /// Anything else (punctuation residue, symbols).
    Other,
}

const DETERMINERS: &[&str] = &[
    "a", "an", "the", "this", "that", "these", "those", "every", "each", "no",
];

const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "to", "for", "by", "with", "as", "into", "from", "about", "over",
    "under", "between", "through", "during", "before", "after", "above", "below", "near",
];

const PRONOUNS: &[&str] = &[
    "i", "you", "he", "she", "it", "we", "they", "me", "him", "her", "us", "them", "his", "hers",
    "their", "theirs", "my", "your", "our", "whose",
];

const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "so", "yet"];

const AUXILIARIES: &[&str] = &[
    "is", "are", "was", "were", "be", "been", "being", "am", "do", "does", "did", "has", "have",
    "had", "will", "would", "can", "could", "shall", "should", "may", "might", "must",
];

/// Frequent verbs in benchmark questions (base and inflected forms) that a
/// suffix heuristic alone would miss.
const COMMON_VERBS: &[&str] = &[
    "write",
    "wrote",
    "written",
    "writes",
    "win",
    "won",
    "wins",
    "direct",
    "directed",
    "directs",
    "star",
    "starred",
    "stars",
    "play",
    "played",
    "plays",
    "marry",
    "married",
    "marries",
    "bear",
    "born",
    "die",
    "died",
    "dies",
    "live",
    "lived",
    "lives",
    "work",
    "worked",
    "works",
    "flow",
    "flows",
    "flowed",
    "start",
    "started",
    "starts",
    "create",
    "created",
    "creates",
    "found",
    "founded",
    "founds",
    "publish",
    "published",
    "publishes",
    "author",
    "authored",
    "cite",
    "cited",
    "cites",
    "locate",
    "located",
    "graduate",
    "graduated",
    "study",
    "studied",
    "studies",
    "develop",
    "developed",
    "develops",
    "invent",
    "invented",
    "invents",
    "discover",
    "discovered",
    "lead",
    "led",
    "leads",
    "own",
    "owned",
    "owns",
    "belong",
    "belongs",
    "belonged",
    "produce",
    "produced",
    "produces",
    "appear",
    "appeared",
    "appears",
    "run",
    "ran",
    "runs",
    "border",
    "borders",
    "bordered",
    "speak",
    "spoke",
    "spoken",
    "speaks",
    "teach",
    "taught",
    "teaches",
    "collaborate",
    "collaborated",
    "supervise",
    "supervised",
    "receive",
    "received",
    "receives",
];

const COMMON_ADJECTIVES: &[&str] = &[
    "first", "last", "largest", "smallest", "highest", "lowest", "longest", "shortest", "oldest",
    "youngest", "biggest", "best", "famous", "official", "main", "total", "current", "former",
    "nearest", "deepest", "tallest", "most", "least",
];

/// Tag a single lowercase word, given whether it was capitalised in the
/// question and whether it is sentence-initial.
pub fn pos_tag(lower: &str, capitalized: bool, sentence_initial: bool) -> PosTag {
    if lower.chars().all(|c| c.is_ascii_digit()) && !lower.is_empty() {
        return PosTag::Number;
    }
    if QUESTION_WORDS.contains(&lower) && sentence_initial {
        return PosTag::QuestionWord;
    }
    if DETERMINERS.contains(&lower) {
        return PosTag::Determiner;
    }
    if PREPOSITIONS.contains(&lower) {
        return PosTag::Preposition;
    }
    if PRONOUNS.contains(&lower) {
        return PosTag::Pronoun;
    }
    if CONJUNCTIONS.contains(&lower) {
        return PosTag::Conjunction;
    }
    if AUXILIARIES.contains(&lower) {
        return PosTag::Verb;
    }
    if COMMON_VERBS.contains(&lower) {
        return PosTag::Verb;
    }
    if COMMON_ADJECTIVES.contains(&lower) {
        return PosTag::Adjective;
    }
    if capitalized && !sentence_initial {
        return PosTag::ProperNoun;
    }
    // Suffix heuristics.
    if lower.ends_with("ly") && lower.len() > 3 {
        return PosTag::Adverb;
    }
    if (lower.ends_with("ing") || lower.ends_with("ed")) && lower.len() > 4 {
        return PosTag::Verb;
    }
    if (lower.ends_with("ous")
        || lower.ends_with("ful")
        || lower.ends_with("ical")
        || lower.ends_with("able"))
        && lower.len() > 4
    {
        return PosTag::Adjective;
    }
    PosTag::Noun
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_class_words_are_tagged() {
        assert_eq!(pos_tag("the", false, false), PosTag::Determiner);
        assert_eq!(pos_tag("of", false, false), PosTag::Preposition);
        assert_eq!(pos_tag("they", false, false), PosTag::Pronoun);
        assert_eq!(pos_tag("and", false, false), PosTag::Conjunction);
        assert_eq!(pos_tag("is", false, false), PosTag::Verb);
        assert_eq!(pos_tag("42", false, false), PosTag::Number);
    }

    #[test]
    fn question_words_only_sentence_initially() {
        assert_eq!(pos_tag("who", false, true), PosTag::QuestionWord);
        // "who" mid-sentence is a relative pronoun; we don't tag it as a
        // question word so the first-noun heuristic is unaffected.
        assert_ne!(pos_tag("who", false, false), PosTag::QuestionWord);
    }

    #[test]
    fn capitalised_mid_sentence_is_proper_noun() {
        assert_eq!(pos_tag("kaliningrad", true, false), PosTag::ProperNoun);
        assert_eq!(pos_tag("kaliningrad", false, false), PosTag::Noun);
    }

    #[test]
    fn suffix_heuristics() {
        assert_eq!(pos_tag("quickly", false, false), PosTag::Adverb);
        assert_eq!(pos_tag("running", false, false), PosTag::Verb);
        assert_eq!(pos_tag("famous", false, false), PosTag::Adjective);
        assert_eq!(pos_tag("sea", false, false), PosTag::Noun);
    }
}
