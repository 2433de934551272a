//! Integration: observability behind the facade. A live server answers
//! a `STATS` request over a real socket with a JSON snapshot that spans
//! the whole stack — request-path counters and latency histograms from
//! the server plus connection gauges from the transport — and the same
//! registry is visible in-process through `telemetry_snapshot()`.

use communix::client::{fetch_stats, Connector, PipelinedConnector};
use communix::net::{Reply, Request};
use communix::telemetry::json::flatten_numbers;
use communix::workloads::SigGen;

#[test]
fn live_server_answers_stats_with_a_parseable_snapshot() {
    let (srv, mut tcp) = communix::server::builder().serve("127.0.0.1:0").unwrap();
    let mut gen = SigGen::new(7);

    // Drive some traffic first so the snapshot has something to say.
    let mut client = PipelinedConnector::connect(tcp.addr()).unwrap();
    for user in 1..=3u64 {
        let id = srv.authority().issue(user);
        let reply = client
            .call(Request::Add {
                sender: id,
                sig_text: gen.random_signature().to_string(),
            })
            .unwrap();
        assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));
    }
    client.call(Request::Get { from: 0 }).unwrap();

    // The STATS round trip, through the client helper.
    let json = fetch_stats(&mut client).expect("STATS round trip");
    let nums = flatten_numbers(&json).expect("snapshot must be valid JSON");
    let find = |path: &str| {
        nums.iter()
            .find(|(p, _)| p == path)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {path} in {json}"))
    };

    // Server-side counters and histograms.
    assert_eq!(find("counters.server.adds.accepted"), 3.0);
    assert_eq!(find("counters.server.gets"), 1.0);
    assert_eq!(find("counters.server.sigs_served"), 3.0);
    assert_eq!(find("histograms.server.latency.add.count"), 3.0);
    assert!(
        find("histograms.server.latency.add.p99_us")
            >= find("histograms.server.latency.add.p50_us")
    );

    // Transport-side connection metrics, in the same snapshot.
    assert_eq!(find("counters.transport.accepted"), 1.0);
    assert_eq!(find("gauges.transport.connections.current"), 1.0);
    let peak = find("gauges.transport.connections.peak");
    assert!(peak >= find("gauges.transport.connections.current"));

    // Occupancy gauges refreshed at snapshot time.
    assert_eq!(find("gauges.server.db.sigs.current"), 3.0);

    // The wire snapshot agrees with the in-process view.
    let local = srv.telemetry_snapshot();
    assert_eq!(local.counter("server.adds.accepted"), Some(3));
    assert_eq!(local.counter("transport.accepted"), Some(1));
    tcp.shutdown();
}
