//! A built-in synonym / topic lexicon.
//!
//! The original KGQAn computes semantic affinity with FastText vectors
//! trained on a million-word news vocabulary, in which related words (wife /
//! spouse, flow / outflow) are close.  We cannot ship those vectors, so the
//! substitute embedding ([`crate::embedding`]) is *seeded* with this lexicon:
//! words that belong to the same topic group share a strong common component
//! in their vectors, which reproduces the property the linker actually relies
//! on — that a question phrase ranks its semantically-equivalent predicate /
//! vertex above distractors.
//!
//! The lexicon is general English vocabulary (family relations, geography,
//! scholarly publishing, film, politics, …); it is **not** derived from any
//! target knowledge graph, so the "no per-KG prior knowledge" property of the
//! paper is preserved.

use std::collections::HashMap;
use std::sync::LazyLock;

/// Topic groups: words within one group are treated as near-synonyms.
pub const SYNONYM_GROUPS: &[&[&str]] = &[
    // family / people
    &["wife", "husband", "spouse", "married", "marry", "partner"],
    &["child", "children", "son", "daughter", "kid"],
    &["parent", "father", "mother", "parents"],
    &["sibling", "brother", "sister"],
    // birth / death
    &["born", "birth", "birthplace", "birthday", "birthdate"],
    &["die", "died", "death", "deathplace", "dead"],
    // geography
    &["city", "cities", "town", "municipality", "settlement"],
    &["country", "nation", "state", "countries"],
    &["capital"],
    &["river", "stream", "tributary"],
    &["sea", "ocean", "gulf", "bay", "water", "strait"],
    &["lake"],
    &["mountain", "peak", "mount", "hill"],
    &["flow", "flows", "outflow", "inflow", "mouth", "drains"],
    &["shore", "coast", "coastline", "nearest", "near", "beside"],
    &["located", "location", "place", "situated", "lies"],
    &[
        "border",
        "borders",
        "bordering",
        "neighbour",
        "neighbor",
        "adjacent",
    ],
    &["population", "inhabitants", "people", "populous"],
    &["area", "size", "extent"],
    &["height", "tall", "elevation", "high"],
    &["length", "long", "distance"],
    &["language", "languages", "speak", "spoken", "official"],
    &["currency", "money"],
    // scholarly publishing (DBLP / MAG domain)
    &[
        "author", "authors", "authored", "writer", "wrote", "written", "write", "creator",
    ],
    &[
        "paper",
        "papers",
        "publication",
        "publications",
        "article",
        "articles",
        "work",
    ],
    &[
        "cite",
        "cited",
        "cites",
        "citation",
        "citations",
        "references",
        "reference",
    ],
    &["conference", "venue", "journal", "proceedings"],
    &["published", "publish", "publisher", "appeared"],
    &[
        "university",
        "college",
        "institution",
        "affiliation",
        "affiliated",
        "school",
        "member",
    ],
    &["field", "topic", "subject", "discipline", "studies"],
    &["advisor", "supervisor", "supervised", "doctoral"],
    &["coauthor", "collaborator", "collaborated", "colleague"],
    &["year", "date", "when", "time", "published"],
    // film / arts
    &["film", "movie", "films", "movies"],
    &["director", "directed", "direct", "filmmaker"],
    &[
        "starring", "star", "starred", "actor", "actress", "cast", "played", "plays",
    ],
    &["album", "song", "music", "band", "singer", "musician"],
    &["book", "novel", "books", "novels"],
    // organisations / politics
    &[
        "company",
        "corporation",
        "firm",
        "organisation",
        "organization",
    ],
    &[
        "founded",
        "founder",
        "founders",
        "established",
        "created",
        "creator",
    ],
    &[
        "president",
        "leader",
        "head",
        "chief",
        "chancellor",
        "premier",
    ],
    &["mayor", "governor"],
    &["member", "members", "part", "belongs", "belong"],
    &["party", "political"],
    &["award", "prize", "won", "win", "winner", "awarded", "nobel"],
    &["team", "club", "squad"],
    &[
        "employer",
        "employed",
        "works",
        "work",
        "working",
        "job",
        "occupation",
        "profession",
    ],
    &["owner", "owns", "owned", "belongs"],
    &[
        "studied",
        "study",
        "graduated",
        "graduate",
        "education",
        "educated",
        "alumni",
    ],
    &[
        "developed",
        "develop",
        "developer",
        "invented",
        "inventor",
        "designed",
        "designer",
    ],
    &["headquarters", "headquartered", "based", "seat"],
    &["type", "kind", "category", "class"],
    &["name", "called", "named", "title", "label"],
];

/// The index of the first topic group containing the lowercase `word`, if
/// any.  Callers lowercase once, where they split their input into words.
pub(crate) fn group_of(word: &str) -> Option<usize> {
    static FIRST_GROUP: LazyLock<HashMap<&'static str, usize>> = LazyLock::new(|| {
        let mut first = HashMap::new();
        for (index, group) in SYNONYM_GROUPS.iter().enumerate() {
            for word in *group {
                first.entry(*word).or_insert(index);
            }
        }
        first
    });
    FIRST_GROUP.get(word).copied()
}

/// True if two lowercase words belong to the same topic group.
pub fn same_group(a: &str, b: &str) -> bool {
    match (group_of(a), group_of(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_motivated_pairs_are_grouped() {
        // "wife" maps to dbo:spouse (§5.2).
        assert!(same_group("wife", "spouse"));
        // "flow" maps to dbp:outflow (running example).
        assert!(same_group("flow", "outflow"));
        assert!(same_group("flows", "outflow"));
        // "city on shore" relates to dbo:nearestCity.
        assert!(same_group("shore", "nearest"));
        assert!(same_group("city", "cities"));
        // Scholarly domain for DBLP/MAG.
        assert!(same_group("wrote", "author"));
        assert!(same_group("paper", "publication"));
    }

    #[test]
    fn unrelated_words_are_not_grouped() {
        assert!(!same_group("wife", "river"));
        assert!(!same_group("sea", "paper"));
        assert!(!same_group("zanzibar", "qwerty"));
    }

    #[test]
    fn group_lookup_takes_lowercase_words() {
        assert_eq!(group_of("wife"), group_of("spouse"));
        assert_eq!(group_of("Wife"), None);
    }

    #[test]
    fn every_group_word_maps_back_to_its_group() {
        for (i, group) in SYNONYM_GROUPS.iter().enumerate() {
            for word in *group {
                // A word may occur in more than one group (e.g. "work"):
                // the lookup returns the first.
                let first = SYNONYM_GROUPS.iter().position(|g| g.contains(word));
                assert_eq!(group_of(word), first);
                assert!(first.unwrap() <= i);
            }
        }
    }
}
