//! Property tests: the HTTP codec and the live server survive arbitrary
//! malformed wire input.
//!
//! Two layers. The codec properties drive [`read_request`] directly with
//! truncated heads, corrupted chunked framings and random bytes — every
//! outcome must be a clean parse or a typed [`HttpError`], never a panic.
//! The server property fires raw malformed bytes at a real listening
//! socket and asserts the connection either answers with a 4xx/5xx status
//! line or closes — and that the server still answers a well-formed
//! request afterwards.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use kgqan_server::http::{read_request, HttpError, Limits};
use kgqan_server::{serve, ServerConfig};

fn parse(bytes: &[u8]) -> Result<(), HttpError> {
    read_request(&mut BufReader::new(bytes), &Limits::default()).map(|_| ())
}

/// A chunked request whose second chunk size wraps the body length: the
/// size check must refuse it, not overflow and panic the handler thread.
const CHUNK_SIZE_OVERFLOW: &[u8] =
    b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n1\r\nA\r\nffffffffffffffff\r\n";

/// A pool of wire fragments biased towards protocol edge cases.
fn arb_fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"GET / HTTP/1.1\r\n".to_vec()),
        Just(b"POST /kg/DBpedia/ask HTTP/1.1\r\n".to_vec()),
        Just(b"content-length: 5\r\n".to_vec()),
        Just(b"content-length: 99999999999999999999\r\n".to_vec()),
        Just(b"transfer-encoding: chunked\r\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"5\r\nhello\r\n".to_vec()),
        Just(b"ffffffff\r\n".to_vec()),
        Just(b"0\r\n\r\n".to_vec()),
        Just(CHUNK_SIZE_OVERFLOW.to_vec()),
        Just(b"%%%\x00\x01\x02".to_vec()),
        Just(b"\xff\xfe\xfd".to_vec()),
        "[ -~]{0,30}".prop_map(|s| s.into_bytes()),
    ]
}

fn arb_wire() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(arb_fragment(), 0..6).prop_map(|frags| frags.concat())
}

proptest! {
    #[test]
    fn codec_never_panics_on_arbitrary_bytes(wire in arb_wire()) {
        // Outcome is irrelevant; not panicking is the property.
        let _ = parse(&wire);
    }

    #[test]
    fn codec_never_panics_on_truncated_valid_requests(cut in 0usize..120) {
        let full = b"POST /kg/DBpedia/ask HTTP/1.1\r\nhost: x\r\ncontent-length: 16\r\n\r\n{\"question\":\"q\"}";
        let wire = &full[..cut.min(full.len())];
        match parse(wire) {
            // A prefix either parses (the cut fell after a complete
            // request) or fails with a 4xx-mappable error.
            Ok(()) => {}
            Err(e) => prop_assert!(e.status() == 0 || (400..500).contains(&e.status())),
        }
    }

    #[test]
    fn codec_rejects_corrupted_chunked_bodies(
        size_line in "[0-9a-zA-Z]{1,10}",
        payload in "[ -~]{0,40}",
    ) {
        let wire = format!(
            "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n{size_line}\r\n{payload}"
        );
        match parse(wire.as_bytes()) {
            Ok(()) => {}
            Err(e) => prop_assert!(
                e.status() == 0 || (400..500).contains(&e.status()),
                "chunked corruption must map to 4xx, got {}",
                e.status()
            ),
        }
    }

    #[test]
    fn codec_bounds_oversized_requests(extra in 0usize..4096) {
        let limits = Limits { max_head_bytes: 256, max_body_bytes: 128 };
        let head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(240 + extra));
        let err = read_request(&mut BufReader::new(head.as_bytes()), &limits).unwrap_err();
        prop_assert_eq!(err, HttpError::HeadTooLarge);

        let body = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 129 + extra);
        let err = read_request(&mut BufReader::new(body.as_bytes()), &limits).unwrap_err();
        prop_assert_eq!(err, HttpError::BodyTooLarge);
    }
}

#[test]
fn live_server_survives_malformed_connections() {
    let service = kgqan::QaService::builder()
        .endpoint(std::sync::Arc::new(kgqan_endpoint::InProcessEndpoint::new(
            "DBpedia",
            kgqan_rdf::Store::new(),
        )))
        .build()
        .unwrap();
    let handle = serve(
        service,
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut attacks: Vec<&[u8]> = vec![
        b"",
        b"\r\n\r\n",
        b"GARBAGE\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"POST / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n",
        b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
        b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nab", // truncated body
        b"\x00\x01\x02\x03\xff\xfe",
    ];
    // One for every handler thread: a request that killed its handler
    // would leave none to answer the final check.
    attacks.extend(std::iter::repeat_n(
        CHUNK_SIZE_OVERFLOW,
        ServerConfig::default().handler_threads,
    ));
    for attack in attacks {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(attack).unwrap();
        // Half-close so truncated requests hit EOF instead of waiting out
        // the idle timeout.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        if !reply.is_empty() {
            let status: u16 = reply
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert!(
                (400..600).contains(&status),
                "attack {attack:?} got non-error reply {reply:?}"
            );
        }
        if attack == CHUNK_SIZE_OVERFLOW {
            assert!(reply.starts_with("HTTP/1.1 413"), "{reply:?}");
        }
    }

    // The server still serves a well-formed request afterwards.
    let mut client = kgqan_server::HttpClient::connect(handle.addr());
    let response = client.get("/healthz").expect("server survived the fuzzing");
    assert_eq!(response.status, 200);
}

/// Both body parsers recurse once per nesting level, on a handler thread's
/// 2 MiB stack.  A stack overflow is not a panic — it aborts the process
/// and every request in flight — so a body nested past the parsers' cap
/// must come back as a plain `400`.
#[test]
fn live_server_refuses_deeply_nested_bodies() {
    let service = kgqan::QaService::builder()
        .endpoint(std::sync::Arc::new(kgqan_endpoint::InProcessEndpoint::new(
            "DBpedia",
            kgqan_rdf::Store::new(),
        )))
        .build()
        .unwrap();
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).unwrap();

    // The JSON bodies fill `max_body_bytes` exactly.
    let brackets = "[".repeat(Limits::default().max_body_bytes);
    let braces = format!("SELECT ?s WHERE {}", "{".repeat(100_000));
    let or_chain = format!(
        "SELECT ?s WHERE {{ ?s ?p ?o FILTER(?o {}) }}",
        "|| ?o ".repeat(100_000)
    );
    let attacks = [
        ("/kg/DBpedia/ask", "application/json", &brackets),
        ("/federate/ask", "application/json", &brackets),
        ("/kg/DBpedia/sparql", "application/sparql-query", &braces),
        ("/kg/DBpedia/sparql", "application/sparql-query", &or_chain),
    ];
    for (path, content_type, body) in attacks {
        let refused = kgqan_server::HttpClient::connect(handle.addr())
            .post(path, content_type, body)
            .unwrap_or_else(|e| panic!("{path}: no reply ({e}); did the server abort?"));
        assert_eq!(refused.status, 400, "{path}: {}", refused.text());

        // A fresh connection is still served.
        let served = kgqan_server::HttpClient::connect(handle.addr())
            .post(
                "/kg/DBpedia/sparql",
                "application/sparql-query",
                "ASK { ?s ?p ?o }",
            )
            .expect("server survived");
        assert_eq!(served.status, 200, "{}", served.text());
    }
}
