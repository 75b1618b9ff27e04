//! Question tokenization.
//!
//! Produces tokens that keep both the original surface form (needed when a
//! phrase is copied verbatim into a triple pattern, e.g. "Danish Straits")
//! and a lowercase form used by the feature extractors and embeddings.

/// A single question token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The surface form as it appeared in the question.
    pub surface: String,
    /// Lowercased form.
    pub lower: String,
    /// True if the surface form starts with an uppercase letter.
    pub capitalized: bool,
    /// True if the token is purely numeric.
    pub numeric: bool,
}

impl Token {
    /// Build a token from a surface string.
    pub fn new(surface: &str) -> Self {
        let lower = surface.to_lowercase();
        let capitalized = surface.chars().next().is_some_and(|c| c.is_uppercase());
        let numeric = !surface.is_empty() && surface.chars().all(|c| c.is_ascii_digit());
        Token {
            surface: surface.to_string(),
            lower,
            capitalized,
            numeric,
        }
    }
}

/// English stop words ignored by phrase matching and the affinity model.
const STOP_WORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "at", "to", "for", "by", "with", "as", "is", "are", "was",
    "were", "be", "been", "does", "do", "did", "and", "or", "that", "which", "whose", "into",
    "from", "has", "have", "had", "one", "its", "it", "this", "these", "those", "there", "also",
    "many", "much", "most", "all", "any", "some", "s",
];

/// True if `word` (lowercase) is a stop word.
pub fn is_stop_word(word: &str) -> bool {
    STOP_WORDS.contains(&word)
}

/// Question words that introduce unknowns.
pub(crate) const QUESTION_WORDS: &[&str] = &[
    "who", "whom", "what", "which", "where", "when", "how", "why", "whose", "name", "list", "give",
    "show", "tell", "count",
];

/// The raw token slices of `text`: maximal runs of alphanumerics, hyphens
/// and apostrophes, in their original case.  Every tokenizer in this module
/// splits through it, and a token splits into itself alone, so
/// [`for_each_content_word`] applied to one yields at most one word.
pub fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '\''))
        .filter(|run| !run.is_empty())
}

/// Tokenize a natural-language question into [`Token`]s.
///
/// Splits on whitespace and punctuation but keeps intra-word hyphens and
/// apostrophes ("Covid-19", "O'Brien") together.
pub fn tokenize_question(question: &str) -> Vec<Token> {
    tokens(question).map(Token::new).collect()
}

/// Call `f` with the lowercase form of every content (non-stop) word of
/// `phrase`, in order — the words [`content_words`] returns, without
/// building a `Token` or a `String` per word: a token that is already
/// lowercase ASCII is passed as a slice of `phrase`, any other goes through
/// one buffer reused for the whole phrase.
pub fn for_each_content_word(phrase: &str, mut f: impl FnMut(&str)) {
    let mut buffer = String::new();
    for token in tokens(phrase) {
        let lower = if token
            .bytes()
            .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
        {
            token
        } else {
            buffer.clear();
            if token.is_ascii() {
                buffer.push_str(token);
                buffer.make_ascii_lowercase();
            } else {
                // Same call as `Token::new`: context rules (final sigma) and
                // length-changing mappings must agree with it exactly.
                buffer.push_str(&token.to_lowercase());
            }
            &buffer
        };
        if !is_stop_word(lower) {
            f(lower);
        }
    }
}

/// Remove stop words from a phrase (lowercased), keeping word order.
pub fn content_words(phrase: &str) -> Vec<String> {
    let mut words = Vec::new();
    for_each_content_word(phrase, |word| words.push(word.to_string()));
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_running_example() {
        let q = "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore";
        let tokens = tokenize_question(q);
        assert_eq!(tokens.len(), 19);
        assert_eq!(tokens[0].surface, "Name");
        assert!(tokens[0].capitalized);
        let danish = tokens.iter().find(|t| t.surface == "Danish").unwrap();
        assert!(danish.capitalized);
        assert_eq!(danish.lower, "danish");
    }

    #[test]
    fn keeps_hyphens_and_apostrophes() {
        let tokens = tokenize_question("When did Covid-19 start in O'Brien's country?");
        let surfaces: Vec<&str> = tokens.iter().map(|t| t.surface.as_str()).collect();
        assert!(surfaces.contains(&"Covid-19"));
        assert!(surfaces.contains(&"O'Brien's"));
    }

    #[test]
    fn numeric_detection() {
        let tokens = tokenize_question("population of 431000 people in 1945");
        assert!(tokens.iter().any(|t| t.numeric && t.surface == "431000"));
        assert!(tokens.iter().any(|t| t.numeric && t.surface == "1945"));
        assert!(
            !tokens
                .iter()
                .find(|t| t.surface == "people")
                .unwrap()
                .numeric
        );
    }

    #[test]
    fn stop_words_and_content_words() {
        assert!(is_stop_word("the"));
        assert!(!is_stop_word("sea"));
        assert_eq!(
            content_words("the city on the shore"),
            vec!["city", "shore"]
        );
        assert_eq!(content_words("of the"), Vec::<String>::new());
    }

    #[test]
    fn content_word_walk_lowercases_like_token_new() {
        // ASCII fast path, mixed case, final sigma, a mapping that grows
        // ("İ" → "i̇"), digits, hyphens and apostrophes.
        for phrase in [
            "the City on THE shore",
            "ΟΔΥΣΣΕΥΣ of İstanbul",
            "Covid-19 in O'Brien's STRASSE 2279569217",
            "of the",
            "",
        ] {
            let expected: Vec<String> = tokenize_question(phrase)
                .into_iter()
                .map(|t| t.lower)
                .filter(|w| !is_stop_word(w))
                .collect();
            assert_eq!(content_words(phrase), expected, "{phrase:?}");
        }
    }

    #[test]
    fn empty_question_yields_no_tokens() {
        assert!(tokenize_question("").is_empty());
        assert!(tokenize_question("?!...").is_empty());
    }
}
