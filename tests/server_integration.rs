//! End-to-end tests of the networked refinement service over real TCP
//! sockets: concurrent clients, fault injection (mid-solve disconnects,
//! overload bursts, byte-dribbling slow clients, malformed and oversized
//! requests), graceful degradation under deadlines, the metrics endpoint,
//! and drain-on-shutdown.
//!
//! Each test starts its own in-process server on an ephemeral port with a
//! config tuned for the scenario. Time bounds are deliberately generous:
//! CI runs this on a single hardware thread.

use qr_server::{start, Json, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A line-protocol test client.
struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            stream,
            carry: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    /// Read one response line (panics on timeout/EOF — tests always expect
    /// a response when they call this).
    fn recv(&mut self) -> Json {
        let raw = self.try_recv().expect("a response line");
        Json::parse(&raw).unwrap_or_else(|e| panic!("bad response {raw:?}: {e}"))
    }

    /// Read one response line, or `None` on EOF.
    fn try_recv(&mut self) -> Option<String> {
        loop {
            if let Some(nl) = self.carry.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.carry.drain(..=nl).collect();
                return Some(String::from_utf8_lossy(&line[..nl]).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("recv: {e}"),
            }
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn scrape_metrics(addr: SocketAddr) -> Json {
    Client::connect(addr).roundtrip(r#"{"op":"metrics"}"#)
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("server")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing in {}", metrics.render()))
}

/// Poll the metrics endpoint until `pred` holds (true) or `limit` passes
/// (false).
fn wait_for(addr: SocketAddr, limit: Duration, pred: impl Fn(&Json) -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if pred(&scrape_metrics(addr)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// A solve that runs far longer than any cancellation latency being
/// measured against it: the Jaccard distance over the astronauts workload
/// at k=25 is a real MILP search that runs to the solve ceiling (90s+)
/// if nothing stops it.
const LONG_SOLVE: &str = r#"{"op":"solve","id":"long","dataset":"astronauts","epsilon":0.25,"distance":"JAC","constraints":[{"attribute":"Gender","value":"F","k":25,"n":13}]}"#;

/// A small solve over the paper's 8-tuple example database: milliseconds.
const QUICK_SOLVE: &str = r#"{"op":"solve","id":"quick","dataset":"paper","epsilon":0.5,"deadline_ms":30000,"constraints":[{"attribute":"Gender","value":"F","k":6,"n":3}]}"#;

#[test]
fn ping_solve_and_metrics_over_a_real_socket() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    let pong = client.roundtrip(r#"{"op":"ping","id":1}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(1));

    // The paper's worked example end to end, on the same connection.
    let solved = client.roundtrip(QUICK_SOLVE);
    assert_eq!(solved.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(solved.get("id").and_then(Json::as_str), Some("quick"));
    assert_eq!(
        solved.get("outcome").and_then(Json::as_str),
        Some("refined")
    );
    let refined = solved.get("refined").expect("refined payload");
    assert!(refined.get("sql").and_then(Json::as_str).is_some());
    assert!(refined.get("deviation").and_then(Json::as_f64).is_some());
    let stats = solved.get("stats").expect("stats payload");
    assert!(stats.get("total_ms").and_then(Json::as_f64).is_some());

    let metrics = scrape_metrics(addr);
    assert_eq!(counter(&metrics, "completed"), 1);
    assert_eq!(counter(&metrics, "shed"), 0);
    let solver = metrics.get("solver").expect("solver aggregate");
    assert_eq!(solver.get("solves").and_then(Json::as_u64), Some(1));
    assert!(solver.get("nodes").and_then(Json::as_u64).is_some());
    let pool = metrics.get("pool").expect("pool block");
    assert_eq!(
        pool.get("resident_sessions").and_then(Json::as_u64),
        Some(1)
    );

    server.join();
}

/// Fault scenario (a): a client that vanishes mid-solve has its solve
/// cancelled promptly instead of holding the worker for the full search.
#[test]
fn mid_solve_disconnect_cancels_promptly() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let started = Instant::now();
    let mut doomed = Client::connect(addr);
    doomed.send(LONG_SOLVE);
    // Let admission + session fetch begin, then vanish without reading.
    assert!(
        wait_for(addr, Duration::from_secs(30), |m| {
            counter(m, "accepted") >= 1
        }),
        "solve was never admitted"
    );
    drop(doomed);

    // The disconnect poll trips the token and the solver's cancellation
    // polls stop the search — long before the full astronauts search (or
    // the 120s solve ceiling) would have finished.
    assert!(
        wait_for(addr, Duration::from_secs(30), |m| {
            counter(m, "cancelled") >= 1
        }),
        "disconnect did not cancel the solve"
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancellation was not prompt: {:?}",
        started.elapsed()
    );
    let metrics = scrape_metrics(addr);
    assert_eq!(counter(&metrics, "completed"), 0);

    server.join();
}

/// Fault scenario (b): an overload burst sheds deterministically at the
/// queue cap with structured retry hints, while every accepted request
/// still gets its answer within its deadline.
#[test]
fn overload_burst_sheds_and_accepted_requests_complete() {
    let server = start(ServerConfig {
        workers: 1,
        max_queue_depth: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Occupy the only worker with a long solve whose client then leaves.
    let mut hog = Client::connect(addr);
    hog.send(LONG_SOLVE);
    assert!(
        wait_for(addr, Duration::from_secs(30), |m| {
            counter(m, "accepted") >= 1 && counter(m, "queue_depth") == 0
        }),
        "long solve never reached the worker"
    );

    // Burst: five more clients. The queue cap admits exactly two; the rest
    // are shed up front with retry hints.
    let mut burst: Vec<Client> = (0..5)
        .map(|i| {
            let mut c = Client::connect(addr);
            c.send(&QUICK_SOLVE.replace("\"quick\"", &format!("\"burst-{i}\"")));
            c
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut accepted = 0usize;
    let mut shed = 0usize;
    // Shed responses arrive immediately; free the worker so the accepted
    // ones can run.
    assert!(
        wait_for(addr, Duration::from_secs(10), |m| counter(m, "shed") == 3),
        "expected exactly 3 sheds (got {})",
        counter(&scrape_metrics(addr), "shed")
    );
    drop(hog);

    for client in &mut burst {
        let response = client.recv();
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            accepted += 1;
            assert_eq!(
                response.get("outcome").and_then(Json::as_str),
                Some("refined"),
                "accepted request degraded: {}",
                response.render()
            );
        } else {
            shed += 1;
            let error = response.get("error").expect("error object");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("shed"));
            assert!(
                error.get("retry_after_ms").and_then(Json::as_f64).is_some(),
                "shed without retry hint: {}",
                response.render()
            );
        }
    }
    assert_eq!((accepted, shed), (2, 3));
    assert!(
        Instant::now() < deadline,
        "accepted requests missed their deadlines"
    );

    server.join();
}

/// Graceful degradation: a deadline-exceeded solve is a *successful*
/// response carrying the interrupted outcome and full statistics.
#[test]
fn deadline_exceeded_solves_degrade_to_incumbent_responses() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    let line = r#"{"op":"solve","id":"tight","dataset":"astronauts","epsilon":0.25,"distance":"JAC","deadline_ms":2000,"constraints":[{"attribute":"Gender","value":"F","k":25,"n":13}]}"#;
    let response = client.roundtrip(line);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "deadline exceedance must not be an error: {}",
        response.render()
    );
    assert_eq!(
        response.get("outcome").and_then(Json::as_str),
        Some("interrupted")
    );
    let stats = response.get("stats").expect("stats despite interruption");
    assert_eq!(stats.get("interrupted").and_then(Json::as_bool), Some(true));

    let metrics = scrape_metrics(addr);
    assert_eq!(counter(&metrics, "timed_out"), 1);
    assert_eq!(counter(&metrics, "cancelled"), 0);
    let solver = metrics.get("solver").expect("solver aggregate");
    assert_eq!(solver.get("interrupted").and_then(Json::as_u64), Some(1));

    server.join();
}

/// Fault scenario (c): a byte-dribbling client is cut off by the per-line
/// read budget with a structured error, and concurrent well-behaved
/// clients are unaffected.
#[test]
fn slow_loris_client_times_out_without_hurting_others() {
    let server = start(ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let mut dribbler = Client::connect(addr);
    let payload = br#"{"op":"ping"#;
    // One byte every 100ms, never a newline: the line budget is absolute,
    // so progress does not reset it. Stop writing before the budget fires —
    // a write after the server closes would RST the connection and could
    // discard the buffered error response this test asserts on.
    for (i, byte) in payload.iter().take(4).enumerate() {
        let _ = dribbler.stream.write_all(&[*byte]);
        std::thread::sleep(Duration::from_millis(100));
        if i == 1 {
            // Mid-dribble, a well-behaved client gets normal service.
            let pong = Client::connect(addr).roundtrip(r#"{"op":"ping","id":"ok"}"#);
            assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    // The dribbler got a structured bad_request before the close.
    let raw = dribbler.try_recv().expect("timeout error before close");
    let response = Json::parse(&raw).expect("structured error");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(dribbler.try_recv(), None, "connection closed after timeout");

    let metrics = scrape_metrics(addr);
    assert!(counter(&metrics, "read_timeouts") >= 1);

    server.join();
}

/// Fault scenario (d): malformed and oversized request lines produce
/// structured errors — never a raw panic across the socket — and the
/// server stays healthy throughout.
#[test]
fn malformed_and_oversized_requests_get_structured_errors() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);

    // Garbage: structured bad_request, connection stays usable.
    let response = client.roundtrip("hello there");
    let kind = |r: &Json| {
        r.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(String::from)
    };
    assert_eq!(kind(&response).as_deref(), Some("bad_request"));

    // Wrong field types and unknown datasets: same taxonomy, id echoed.
    let response = client.roundtrip(r#"{"op":"solve","id":"e1","dataset":"secrets"}"#);
    assert_eq!(kind(&response).as_deref(), Some("bad_request"));
    assert_eq!(response.get("id").and_then(Json::as_str), Some("e1"));
    let response = client.roundtrip(r#"{"op":"solve","dataset":"paper","epsilon":"lots"}"#);
    assert_eq!(kind(&response).as_deref(), Some("bad_request"));

    // The connection survived three bad requests.
    let pong = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    // Oversized line: structured error, then the server closes this
    // connection in self-defense.
    let mut big = Client::connect(addr);
    big.send(&format!(
        r#"{{"op":"ping","pad":"{}"}}"#,
        "x".repeat(qr_server::MAX_LINE_BYTES + 1024)
    ));
    let raw = big.try_recv().expect("structured error for oversized line");
    let response = Json::parse(&raw).expect("valid JSON");
    assert_eq!(kind(&response).as_deref(), Some("bad_request"));
    assert_eq!(big.try_recv(), None, "oversized connection is closed");

    // And the server is still healthy for new connections.
    let pong = Client::connect(addr).roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = scrape_metrics(addr);
    assert!(counter(&metrics, "bad_requests") >= 4);
    assert_eq!(counter(&metrics, "internal_errors"), 0);

    server.join();
}

/// Run the long astronaut search under a small deadline and hand back the
/// interrupted response, which must carry a redeemable `resume_token`.
fn interrupted_with_token(client: &mut Client, id: &str, deadline_ms: u64) -> (Json, String) {
    let line = format!(
        r#"{{"op":"solve","id":"{id}","dataset":"astronauts","epsilon":0.25,"distance":"JAC","deadline_ms":{deadline_ms},"constraints":[{{"attribute":"Gender","value":"F","k":25,"n":13}}]}}"#
    );
    let response = client.roundtrip(&line);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "interrupted solve must still be a success: {}",
        response.render()
    );
    assert_eq!(
        response.get("outcome").and_then(Json::as_str),
        Some("interrupted")
    );
    let token = response
        .get("resume_token")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no resume_token in {}", response.render()))
        .to_string();
    (response, token)
}

fn error_kind(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

/// The tentpole over the wire: an interrupted solve hands out a resume
/// token; the token outlives the connection that earned it, continues the
/// search (restoring checkpointed nodes) from a brand-new connection, and
/// is strictly one-shot — replaying it is a structured `bad_request`.
#[test]
fn resume_tokens_survive_reconnects_and_are_one_shot() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut first = Client::connect(addr);
    let (_, token) = interrupted_with_token(&mut first, "seg-1", 2000);
    // The connection that earned the token vanishes entirely.
    drop(first);

    // A brand-new connection redeems it and the search *continues*: the
    // checkpointed frontier is restored, not rebuilt from the root.
    let mut second = Client::connect(addr);
    let resumed = second.roundtrip(&format!(
        r#"{{"op":"resume","id":"seg-2","token":"{token}","deadline_ms":2000}}"#
    ));
    assert_eq!(
        resumed.get("ok").and_then(Json::as_bool),
        Some(true),
        "resume failed: {}",
        resumed.render()
    );
    assert_eq!(resumed.get("id").and_then(Json::as_str), Some("seg-2"));
    let stats = resumed.get("stats").expect("stats payload");
    assert_eq!(stats.get("resumed_solves").and_then(Json::as_u64), Some(1));
    assert!(
        stats
            .get("nodes_restored")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "resumed segment restored no frontier: {}",
        resumed.render()
    );
    // The astronaut search is hours deep; a second 2s slice re-interrupts
    // and must mint a *fresh* token (the old one is spent).
    let next_token = resumed
        .get("resume_token")
        .and_then(Json::as_str)
        .expect("re-interrupted resume re-checkpoints");
    assert_ne!(next_token, token, "tokens must be one-shot, never reused");

    // Replaying the redeemed token is a structured bad_request.
    let replay = second.roundtrip(&format!(r#"{{"op":"resume","token":"{token}"}}"#));
    assert_eq!(error_kind(&replay), Some("bad_request"));

    let metrics = scrape_metrics(addr);
    assert!(counter(&metrics, "resume_ops") >= 2);
    let resume = metrics.get("resume").expect("resume block");
    assert!(
        resume
            .get("tokens_issued")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2
    );
    assert_eq!(
        resume.get("tokens_redeemed").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(counter(&metrics, "internal_errors"), 0);

    server.join();
}

/// Fault scenario (e): a token pinned to a snapshot that a mutation has
/// since moved past is refused with a structured `bad_request` naming the
/// staleness — never a resurrection against the wrong data, never a panic —
/// and the server stays healthy.
#[test]
fn stale_resume_tokens_are_refused_and_the_server_stays_healthy() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    let (_, token) = interrupted_with_token(&mut client, "pin", 2000);

    // Mutate the dataset behind the checkpoint: the pool hands back the
    // very session the suspended solve is pinned to.
    let session = server
        .shared()
        .pool
        .get_or_build("astronauts")
        .expect("pooled session");
    session
        .apply(vec![query_refinement::core::prelude::Mutation::delete(
            "Astronauts",
            vec![0],
        )])
        .expect("mutation applies");

    let refused = client.roundtrip(&format!(r#"{{"op":"resume","token":"{token}"}}"#));
    assert_eq!(
        error_kind(&refused),
        Some("bad_request"),
        "stale resume must be the client's problem, stated structurally: {}",
        refused.render()
    );
    let message = refused
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains("stale"),
        "error should name the staleness: {message}"
    );

    // The connection and the server both survived.
    let pong = client.roundtrip(r#"{"op":"ping","id":"still-up"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = scrape_metrics(addr);
    assert_eq!(counter(&metrics, "internal_errors"), 0);

    server.join();
}

/// Fault scenario (f): tokens expire after the configured TTL and redeeming
/// one is a structured refusal, with the expiry visible in the metrics.
#[test]
fn resume_tokens_expire_after_their_ttl() {
    let server = start(ServerConfig {
        resume_ttl: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    let (_, token) = interrupted_with_token(&mut client, "fleeting", 2000);
    std::thread::sleep(Duration::from_millis(300));

    let refused = client.roundtrip(&format!(r#"{{"op":"resume","token":"{token}"}}"#));
    assert_eq!(error_kind(&refused), Some("bad_request"));
    let metrics = scrape_metrics(addr);
    let resume = metrics.get("resume").expect("resume block");
    assert!(
        resume
            .get("tokens_expired")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(
        resume.get("resident_checkpoints").and_then(Json::as_u64),
        Some(0)
    );

    server.join();
}

/// Drain never resurrects a solve: shutdown empties the resume table, and a
/// token minted before the drain is worthless after it.
#[test]
fn drain_clears_the_resume_table() {
    let server = start(ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    let (_, token) = interrupted_with_token(&mut client, "doomed", 2000);
    let shared = std::sync::Arc::clone(server.shared());
    assert_eq!(shared.resume_table.counters().resident, 1);

    let ack = Client::connect(addr).roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    server.wait();

    assert_eq!(
        shared.resume_table.counters().resident,
        0,
        "drain must leave no suspended solves behind"
    );
    assert!(
        shared.resume_table.take(&token).is_none(),
        "a pre-drain token must be worthless after the drain"
    );
}

/// The retrying client end to end: against a live server it chains resume
/// tokens across interrupted segments — each on a fresh connection — and
/// hands back the last segment's response when its attempt budget runs out.
#[test]
fn retrying_client_chains_resume_tokens_over_the_wire() {
    let server = start(ServerConfig::default()).expect("bind");

    let client =
        qr_server::RetryingClient::new(server.addr()).with_policy(qr_server::RetryPolicy {
            max_attempts: 3,
            ..qr_server::RetryPolicy::default()
        });
    let report = client
        .solve(
            r#"{"op":"solve","id":"chained","dataset":"astronauts","epsilon":0.25,"distance":"JAC","deadline_ms":1500,"constraints":[{"attribute":"Gender","value":"F","k":25,"n":13}]}"#,
        )
        .expect("the retry loop reaches a terminal report");

    // Three round-trips: the initial solve plus two resumed segments, every
    // one interrupted by its 1.5s budget (the full search runs 90s+).
    assert_eq!(report.attempts, 3);
    assert_eq!(report.resumed_segments, 2);
    assert_eq!(report.sheds, 0);
    assert_eq!(
        report.response.get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        report.response.get("outcome").and_then(Json::as_str),
        Some("interrupted")
    );
    let stats = report.response.get("stats").expect("stats payload");
    assert_eq!(stats.get("resumed_solves").and_then(Json::as_u64), Some(1));
    assert!(
        stats
            .get("nodes_restored")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );

    let metrics = scrape_metrics(server.addr());
    assert_eq!(counter(&metrics, "resume_ops"), 2);
    let resume = metrics.get("resume").expect("resume block");
    assert_eq!(
        resume.get("tokens_redeemed").and_then(Json::as_u64),
        Some(2)
    );

    server.join();
}

/// Drain: shutdown stops accepting, cancels in-flight solves via their
/// tokens, and still flushes a reply to the in-flight client.
#[test]
fn shutdown_drains_in_flight_solves_with_replies() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let mut inflight = Client::connect(addr);
    inflight.send(LONG_SOLVE);
    assert!(
        wait_for(addr, Duration::from_secs(30), |m| {
            counter(m, "accepted") >= 1
        }),
        "solve was never admitted"
    );

    // Wire-level shutdown from a second client.
    let ack = Client::connect(addr).roundtrip(r#"{"op":"shutdown","id":"bye"}"#);
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("shutdown"));

    // The in-flight client still gets exactly one reply: either the solve's
    // interrupted outcome (cancelled mid-search) or an `interrupted` error
    // (cancelled before the search started).
    let raw = inflight.try_recv().expect("drain flushes a reply");
    let response = Json::parse(&raw).expect("valid JSON");
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            assert_eq!(
                response.get("outcome").and_then(Json::as_str),
                Some("interrupted")
            );
        }
        _ => {
            assert_eq!(
                response
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("interrupted")
            );
        }
    }

    // join() returns: accept loop, workers and connection threads all wound
    // down. (A hang here fails the test by timeout.)
    server.join();

    // And the listener really is gone (allow the OS a moment to drop it).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(stream) = refused {
        // Accept loop is gone; any connection the backlog sneaks in can
        // never be served — a read must hit EOF, not a response.
        let mut probe = stream;
        let _ = probe.write_all(b"{\"op\":\"ping\"}\n");
        let _ = probe.set_read_timeout(Some(Duration::from_secs(2)));
        let mut buf = [0u8; 16];
        assert!(matches!(probe.read(&mut buf), Ok(0) | Err(_)));
    }
}

/// Drain wakes an accept thread that is blocked with nothing to accept:
/// `join` on a server that never saw a connection returns promptly. The
/// join runs on a helper thread, so a lost wake fails the test instead of
/// hanging it.
#[test]
fn join_returns_promptly_on_a_server_that_never_accepted() {
    let server = start(ServerConfig::default()).expect("bind");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
        "join did not return within 2 s"
    );
    joiner.join().expect("join thread");
}
