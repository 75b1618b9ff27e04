//! Well-known RDF, RDFS, XSD and FOAF vocabulary IRIs used across the
//! workspace, plus the DBpedia/YAGO/DBLP/MAG namespaces of the paper's
//! evaluation.

/// `rdf:type` — the predicate that links a vertex to its class.  KGQAn's
/// candidate queries fetch it in an OPTIONAL clause for the Filter stage
/// (Section 6).
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// `rdfs:label` — the standard description predicate probed by the entity
/// linker (Section 5.1).
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";

/// `foaf:name` — the description predicate used by MAG for people/papers.
pub const FOAF_NAME: &str = "http://xmlns.com/foaf/0.1/name";

/// XSD datatypes.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
/// `xsd:integer`.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// `xsd:nonNegativeInteger`.
pub const XSD_NON_NEG_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#nonNegativeInteger";
/// `xsd:decimal`.
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
/// `xsd:double`.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
/// `xsd:float`.
pub const XSD_FLOAT: &str = "http://www.w3.org/2001/XMLSchema#float";
/// `xsd:boolean`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
/// `xsd:date`.
pub const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
/// `xsd:dateTime`.
pub const XSD_DATETIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
/// `xsd:gYear`.
pub const XSD_GYEAR: &str = "http://www.w3.org/2001/XMLSchema#gYear";

/// DBpedia resource namespace (`dbv:` / `dbr:` in the paper).
pub const DBPEDIA_RESOURCE: &str = "http://dbpedia.org/resource/";
/// DBpedia ontology namespace (`dbo:`).
pub const DBPEDIA_ONTOLOGY: &str = "http://dbpedia.org/ontology/";
/// DBpedia property namespace (`dbp:`).
pub const DBPEDIA_PROPERTY: &str = "http://dbpedia.org/property/";

/// YAGO 4 resource namespace.
pub const YAGO_RESOURCE: &str = "http://yago-knowledge.org/resource/";

/// DBLP namespaces.
pub const DBLP_PERSON: &str = "https://dblp.org/pid/";
/// DBLP publication records.
pub const DBLP_RECORD: &str = "https://dblp.org/rec/";
/// DBLP schema predicates.
pub const DBLP_SCHEMA: &str = "https://dblp.org/rdf/schema#";

/// Microsoft Academic Graph entity namespace (opaque numeric local names).
pub const MAG_ENTITY: &str = "https://makg.org/entity/";
/// MAG property namespace.
pub const MAG_PROPERTY: &str = "https://makg.org/property/";

/// Expand a compact `prefix:local` form used in tests and generators.
///
/// Recognised prefixes: `rdf`, `rdfs`, `xsd`, `foaf`, `dbr`, `dbo`, `dbp`,
/// `yago`, `dblp`, `mag`, `magp`.  Unknown prefixes are returned unchanged.
pub fn expand_curie(curie: &str) -> String {
    let Some((prefix, local)) = curie.split_once(':') else {
        return curie.to_string();
    };
    let ns = match prefix {
        "rdf" => "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
        "rdfs" => "http://www.w3.org/2000/01/rdf-schema#",
        "xsd" => "http://www.w3.org/2001/XMLSchema#",
        "foaf" => "http://xmlns.com/foaf/0.1/",
        "dbr" | "dbv" => DBPEDIA_RESOURCE,
        "dbo" => DBPEDIA_ONTOLOGY,
        "dbp" => DBPEDIA_PROPERTY,
        "yago" => YAGO_RESOURCE,
        "dblp" => DBLP_SCHEMA,
        "dblprec" => DBLP_RECORD,
        "dblppid" => DBLP_PERSON,
        "mag" => MAG_ENTITY,
        "magp" => MAG_PROPERTY,
        _ => return curie.to_string(),
    };
    format!("{ns}{local}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curie_expansion_for_known_prefixes() {
        assert_eq!(expand_curie("rdf:type"), RDF_TYPE);
        assert_eq!(expand_curie("rdfs:label"), RDFS_LABEL);
        assert_eq!(
            expand_curie("dbo:nearestCity"),
            "http://dbpedia.org/ontology/nearestCity"
        );
        assert_eq!(
            expand_curie("dbr:Danish_straits"),
            "http://dbpedia.org/resource/Danish_straits"
        );
        assert_eq!(
            expand_curie("mag:2279569217"),
            "https://makg.org/entity/2279569217"
        );
    }

    #[test]
    fn unknown_prefix_and_plain_strings_pass_through() {
        assert_eq!(expand_curie("unknown:thing"), "unknown:thing");
        assert_eq!(expand_curie("no-colon"), "no-colon");
    }
}
