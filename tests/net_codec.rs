//! Protocol-equivalence suite for the v2 binary payload codec.
//!
//! Four pillars, mirroring `net_protocol.rs`'s guarantees for v1:
//!
//! 1. **Round-trip**: `encode∘decode` is the identity for every payload
//!    shape the protocol carries (params tuples, stats/trace-style
//!    nested objects, arbitrary nesting), and encoding is canonical
//!    (re-encoding the decoded value is byte-identical).
//! 2. **Differential JSON-vs-binary**: the *same* frame encoded as v1
//!    JSON (the encoding of `Hello`) and as v2 binary decodes to the
//!    *same* command.
//! 3. **Totality**: garbage bytes, corruption, and truncation at every
//!    byte boundary yield typed errors or `Ok(None)`, never a panic.
//! 4. **Live server**: a client's v1 `Hello` negotiates version 2, and a
//!    client completes the full command set against the reactor server
//!    on the binary codec.

use proptest::prelude::*;
use std::sync::Arc;

use sentinel_core::Sentinel;
use sentinel_detector::Value as EventValue;
use sentinel_net::codec;
use sentinel_net::protocol::{self, Frame, Opcode, HEADER_LEN, MAGIC};
use sentinel_net::{BatchSignal, ClientError, NetServer, RuleSpec, SentinelClient, ServerConfig};
use sentinel_obs::json;

// Scalars in the parser's canonical form (what both a JSON text round
// trip and a binary decode yield): negatives are `Int`, non-negatives
// `UInt`, and only non-integral numbers stay `Float`.
fn scalar_strategy() -> impl Strategy<Value = json::Value> {
    prop_oneof![
        Just(json::Value::Null),
        (1i64..i64::MAX).prop_map(|n| json::Value::Int(-n)),
        any::<u64>().prop_map(json::Value::UInt),
        any::<bool>().prop_map(json::Value::Bool),
        any::<i32>().prop_map(|n| json::Value::Float(f64::from(n) + 0.5)),
        any::<u64>().prop_map(|n| json::Value::str(format!("s{n}"))),
    ]
}

/// Arbitrarily nested values — arrays, objects with distinct keys,
/// scalars — a superset of every payload shape the command set produces
/// (params tuples, stats sections, trace summaries).
fn value_strategy() -> impl Strategy<Value = json::Value> {
    scalar_strategy().prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(json::Value::Arr),
            prop::collection::vec(inner, 0..6).prop_map(|vals| {
                json::Value::Obj(
                    vals.into_iter().enumerate().map(|(i, v)| (format!("k{i}"), v)).collect(),
                )
            }),
        ]
    })
}

fn payload_strategy() -> impl Strategy<Value = json::Value> {
    prop_oneof![
        Just(json::Value::Null),
        prop::collection::vec(value_strategy(), 1..5).prop_map(|vals| {
            json::Value::Obj(
                vals.into_iter().enumerate().map(|(i, v)| (format!("k{i}"), v)).collect(),
            )
        }),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (prop::sample::select(&Opcode::ALL[..]), any::<u64>(), payload_strategy())
        .prop_map(|(opcode, request_id, payload)| Frame { opcode, request_id, payload })
}

fn event_value_strategy() -> impl Strategy<Value = EventValue> {
    prop_oneof![
        Just(EventValue::Null),
        any::<i64>().prop_map(EventValue::Int),
        any::<i32>().prop_map(|n| EventValue::Float(f64::from(n) / 8.0)),
        any::<bool>().prop_map(EventValue::Bool),
        any::<u64>().prop_map(|n| EventValue::Str(Arc::from(format!("v{n}").as_str()))),
        any::<u64>().prop_map(EventValue::Oid),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Pillar 1: the codec round-trips every payload shape, and its
    /// output is canonical — re-encoding the decoded value reproduces
    /// the bytes exactly.
    #[test]
    fn binary_codec_round_trips_every_shape(v in value_strategy()) {
        let bytes = codec::encode_to_vec(&v).unwrap();
        let back = codec::decode_value(&bytes).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(codec::encode_to_vec(&back).unwrap(), bytes);
    }

    /// Pillar 1, for the protocol's own tuple shape: typed event params
    /// → tagged JSON → binary → back, with nothing lost.
    #[test]
    fn param_tuples_survive_the_binary_codec(
        values in prop::collection::vec(event_value_strategy(), 0..8),
        txn in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        let params: Vec<(Arc<str>, EventValue)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (Arc::from(format!("p{i}").as_str()), v))
            .collect();
        let mut pairs = vec![
            ("event".to_string(), json::Value::str("tick")),
            ("params".to_string(), protocol::params_to_json(&params)),
        ];
        if let Some(t) = txn {
            pairs.push(("txn".to_string(), json::Value::UInt(t)));
        }
        let payload = json::Value::Obj(pairs);
        let bytes = codec::encode_to_vec(&payload).unwrap();
        let back = codec::decode_value(&bytes).unwrap();
        let back_params = back.get("params").and_then(protocol::params_from_json).unwrap();
        prop_assert_eq!(back_params, params);
        prop_assert_eq!(back.get("txn").and_then(json::Value::as_u64), txn);
    }

    /// Pillar 2: one frame, two wire encodings, one meaning. The v1 JSON
    /// and v2 binary encodings of the same frame decode to identical
    /// frames, each tagged with its arrival version.
    #[test]
    fn differential_json_vs_binary_frame(frame in frame_strategy()) {
        let v1 = protocol::encode_with(&frame, protocol::VERSION).unwrap();
        let v2 = protocol::encode_with(&frame, protocol::VERSION_BINARY).unwrap();
        let (f1, w1, u1) = protocol::decode_with(&v1, protocol::VERSION_MAX).unwrap().unwrap();
        let (f2, w2, u2) = protocol::decode_with(&v2, protocol::VERSION_MAX).unwrap().unwrap();
        prop_assert_eq!(w1, protocol::VERSION);
        prop_assert_eq!(w2, protocol::VERSION_BINARY);
        prop_assert_eq!(u1, v1.len());
        prop_assert_eq!(u2, v2.len());
        prop_assert_eq!(&f1, &frame, "JSON body must decode to the original");
        prop_assert_eq!(&f2, &frame, "binary body must decode to the original");
        prop_assert_eq!(&f1, &f2, "both wire forms must agree");
    }

    /// Pillar 2, against the JSON *text* pipeline: binary decode
    /// canonicalizes numbers exactly like `json::Value::parse`, so the
    /// two independent decode paths agree value-for-value.
    #[test]
    fn binary_decode_matches_json_text_parse(v in value_strategy()) {
        let via_text = json::Value::parse(&v.to_string()).unwrap();
        let via_binary = codec::decode_value(&codec::encode_to_vec(&v).unwrap()).unwrap();
        prop_assert_eq!(via_text, via_binary);
    }

    /// Pillar 3: any strict prefix of a valid v2 frame is "incomplete",
    /// never an error or a panic.
    #[test]
    fn binary_truncation_asks_for_more(
        frame in frame_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = protocol::encode_with(&frame, protocol::VERSION_BINARY).unwrap();
        let cut = cut.index(bytes.len());
        prop_assert_eq!(
            protocol::decode_with(&bytes[..cut], protocol::VERSION_MAX).unwrap(),
            None
        );
    }

    /// Pillar 3: raw garbage handed to the codec is a typed error, never
    /// a panic.
    #[test]
    fn codec_garbage_is_total(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = codec::decode_value(&bytes);
    }

    /// Pillar 3: garbage stamped with a valid v2 header decodes totally —
    /// a corrupt binary body is a `DecodeError`, not a panic.
    #[test]
    fn framed_binary_garbage_is_total(
        body in prop::collection::vec(any::<u8>(), 0..64),
        id in any::<u64>(),
    ) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(protocol::VERSION_BINARY);
        bytes.push(Opcode::Ping as u8);
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        if let Ok(Some((_, _, used))) = protocol::decode_with(&bytes, protocol::VERSION_MAX) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Pillar 3: flipping any single byte of a valid v2 frame still
    /// decodes totally.
    #[test]
    fn binary_single_byte_corruption_is_total(
        frame in frame_strategy(),
        pos in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = protocol::encode_with(&frame, protocol::VERSION_BINARY).unwrap();
        let pos = pos.index(bytes.len());
        bytes[pos] ^= xor;
        if let Ok(Some((_, _, used))) = protocol::decode_with(&bytes, protocol::VERSION_MAX) {
            prop_assert!(used <= bytes.len());
        }
    }
}

/// Exhaustive (non-sampled) truncation: a representative frame with a
/// deeply nested payload survives being cut at *every* byte boundary,
/// in both wire versions.
#[test]
fn truncation_at_every_byte_never_panics() {
    let payload = json::Value::obj([
        ("event", json::Value::str("tick")),
        (
            "params",
            json::Value::Arr(vec![
                json::Value::Arr(vec![
                    json::Value::str("p0"),
                    json::Value::str("int"),
                    json::Value::Int(-42),
                ]),
                json::Value::Arr(vec![
                    json::Value::str("p1"),
                    json::Value::str("float"),
                    json::Value::Float(2.5),
                ]),
            ]),
        ),
        ("txn", json::Value::UInt(7)),
        ("nested", json::Value::obj([("deep", json::Value::Arr(vec![json::Value::Null]))])),
    ]);
    let frame = Frame::new(Opcode::SignalSync, 99, payload);
    for version in [protocol::VERSION, protocol::VERSION_BINARY] {
        let bytes = protocol::encode_with(&frame, version).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                protocol::decode_with(&bytes[..cut], protocol::VERSION_MAX).unwrap(),
                None,
                "v{version} cut at {cut}"
            );
        }
        let (back, wire, used) =
            protocol::decode_with(&bytes, protocol::VERSION_MAX).unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(wire, version);
        assert_eq!(used, bytes.len());
    }
}

// ---------------------------------------------------------------------------
// Live-server pillar: negotiation + the full command set.
// ---------------------------------------------------------------------------

fn start_server() -> (Arc<Sentinel>, NetServer, String) {
    let sentinel = Sentinel::in_memory();
    let cfg = ServerConfig { event_loops: 2, ..ServerConfig::default() };
    let server = NetServer::start(sentinel.serve_handle(), cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (sentinel, server, addr)
}

/// Drives the full command surface over one client and checks every
/// reply. `tag` distinguishes event/rule names so several clients can
/// run the set against one server.
fn run_full_command_set(client: &SentinelClient, tag: &str) {
    // Ping echoes a structured payload.
    let payload = json::Value::obj([
        ("n", json::Value::UInt(42)),
        ("list", json::Value::Arr(vec![json::Value::Int(-1), json::Value::str("x")])),
    ]);
    assert_eq!(client.ping(payload.clone()).unwrap(), payload);

    // DDL: class, events, composite, rule, rule admin.
    client.define_class(&format!("Cls{tag}"), &[("x", "int"), ("label", "str")]).unwrap();
    client.define_event(&format!("a_{tag}"), None).unwrap();
    client.define_event(&format!("b_{tag}"), None).unwrap();
    client.define_event(&format!("pair_{tag}"), Some(&format!("a_{tag} ; b_{tag}"))).unwrap();
    client
        .define_rule(
            &RuleSpec::count(&format!("rule_{tag}"), &format!("pair_{tag}")).context("chronicle"),
        )
        .unwrap();
    client.disable_rule(&format!("rule_{tag}")).unwrap();
    client.enable_rule(&format!("rule_{tag}")).unwrap();

    // Signals: a sync pair detection, an async tick, and a batch.
    assert_eq!(client.signal_sync(&format!("a_{tag}"), &[], None).unwrap(), 0);
    assert_eq!(client.signal_sync(&format!("b_{tag}"), &[], None).unwrap(), 1);
    client.signal_async(&format!("a_{tag}"), &[], None).unwrap();
    let a = format!("a_{tag}");
    let b = format!("b_{tag}");
    let batch: Vec<BatchSignal<'_>> =
        vec![(&a, &[], None), (&b, &[], None), (&a, &[], None), (&b, &[], None)];
    let (accepted, _detections) = client.signal_batch(&batch).unwrap();
    assert_eq!(accepted, 4);

    // Introspection.
    let stats = client.stats().unwrap();
    assert!(stats.get("net").is_some(), "stats must carry the net section");
    let scrape = client.metrics_scrape().unwrap();
    assert!(scrape.get("prom").and_then(json::Value::as_str).is_some());
    let traces = client.trace_summaries().unwrap();
    assert!(traces.get("traces").is_some());
    client.export_chrome_trace().unwrap();

    // Replication opcodes stay wire-compatible: each must parse and get
    // a typed reply. (An in-memory primary may decline some with a
    // server error — what matters here is the codec, not storage mode.)
    for result in [
        client.repl_subscribe(&format!("f_{tag}")).map(|_| ()),
        client.repl_snapshot().map(|_| ()),
        client.repl_frames(0, 8).map(|_| ()),
        client.repl_ack(&format!("f_{tag}"), 0).map(|_| ()),
    ] {
        match result {
            Ok(()) | Err(ClientError::Server { .. }) => {}
            Err(e) => panic!("repl opcode broke at the transport level: {e}"),
        }
    }
    // Promote on a primary answers `false`, not an error.
    assert!(!client.promote().unwrap());

    // Rule teardown closes the loop.
    client.drop_rule(&format!("rule_{tag}")).unwrap();
}

/// Pillar 4: `connect` succeeds only on a version-2 grant, and the session
/// pings on it.
#[test]
fn version_negotiation_matrix() {
    let (_s, _server, addr) = start_server();
    let client = SentinelClient::connect(&addr, "bin").expect("connect on a version-2 grant");
    let echo = json::Value::obj([("loops", json::Value::UInt(2))]);
    assert_eq!(client.ping(echo.clone()).unwrap(), echo);
}

/// Pillar 4's acceptance bar: a client — `Hello` in v1 JSON, every later
/// frame in v2 — completes the full command set against the reactor
/// server.
#[test]
fn v1_client_completes_full_command_set_against_reactor() {
    let (_sentinel, _server, addr) = start_server();
    let client = SentinelClient::connect(&addr, "modern").expect("connect on a version-2 grant");
    client.ping(json::Value::Null).unwrap();
    run_full_command_set(&client, "v2");
}
