//! End-to-end tests of `pdgf serve` over real TCP sockets: an in-process
//! [`Server`] with concurrent [`ServeClient`]s, checking the wire
//! protocol and the determinism contract — concatenated range responses
//! are byte-equal to batch generation, and the same request always
//! returns the same bytes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdgf::runtime::ServeConfig;
use pdgf::{FetchRequest, OutputFormat, Pdgf, ServeClient, Server, ServerHandle, ServerOptions};

const MODEL: &str = r#"
<schema name="servetest">
  <seed>424243</seed>
  <rng name="PdgfDefaultRandom"/>
  <table name="t">
    <size>1000</size>
    <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
    <field name="v" type="INTEGER">
      <gen_LongGenerator><min>0</min><max>999999</max></gen_LongGenerator>
    </field>
    <field name="w" type="VARCHAR(12)">
      <gen_RandomStringGenerator min="2" max="12"/>
    </field>
  </table>
</schema>"#;

/// One server plus the reference bytes per format, computed from the
/// same model through the ordinary batch path.
fn start() -> (ServerHandle, Vec<(OutputFormat, Vec<u8>)>) {
    start_with(ServeConfig::new().workers(2).package_rows(37).window(3))
}

fn start_with(config: ServeConfig) -> (ServerHandle, Vec<(OutputFormat, Vec<u8>)>) {
    let project = Pdgf::from_xml_str(MODEL).unwrap().build().unwrap();
    let reference: Vec<(OutputFormat, Vec<u8>)> = OutputFormat::all()
        .into_iter()
        .map(|f| (f, project.table_to_string("t", f).unwrap().into_bytes()))
        .collect();
    let runtime = Arc::new(project.into_runtime());
    let options = ServerOptions::builder().config(config).build().unwrap();
    let server = Server::bind(runtime, "127.0.0.1:0", options, None).unwrap();
    (server.spawn().unwrap(), reference)
}

#[test]
fn concatenated_range_responses_match_generate_for_all_formats() {
    let (server, reference) = start();
    let addr = server.addr();
    for (format, whole) in &reference {
        let mut client = ServeClient::connect(addr).unwrap();
        let mut concat = Vec::new();
        for (start, end) in [(0u64, 311u64), (311, 312), (312, 1000)] {
            let a = client
                .fetch(FetchRequest::range("t", start, end - start).format(*format))
                .unwrap();
            let b = client
                .fetch(FetchRequest::range("t", start, end - start).format(*format))
                .unwrap();
            assert_eq!(a, b, "repeated request differs ({start}..{end})");
            concat.extend_from_slice(&a);
        }
        assert_eq!(
            &concat,
            whole,
            "format {}: concatenated shards != generate output",
            format.extension()
        );
    }
    server.stop();
}

#[test]
fn concurrent_clients_all_receive_exact_bytes() {
    let (server, reference) = start();
    let addr = server.addr();
    let whole = Arc::new(reference[0].1.clone());
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let whole = Arc::clone(&whole);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                // Each client splits the table differently; all must
                // reassemble the identical file.
                let cut = 97 + 103 * i as u64;
                let mut got = client.fetch(FetchRequest::range("t", 0, cut)).unwrap();
                got.extend_from_slice(
                    &client
                        .fetch(FetchRequest::range("t", cut, 1000 - cut))
                        .unwrap(),
                );
                assert_eq!(got, *whole, "client {i} got different bytes");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 8, "4 clients x 2 ranges");
    assert_eq!(stats.aborted, 0);
    server.stop();
}

#[test]
fn point_lookups_and_json_endpoints_work_over_the_wire() {
    let (server, reference) = start();
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();

    // A point lookup is the row's exact slice of the CSV body.
    let whole = String::from_utf8(reference[0].1.clone()).unwrap();
    let line_7: &str = whole.lines().nth(7).unwrap();
    let got = client.fetch(FetchRequest::row("t", 7)).unwrap();
    assert_eq!(String::from_utf8(got).unwrap(), format!("{line_7}\n"));

    let info = client.info().unwrap();
    assert!(info.contains("\"schema\":\"servetest\""), "info: {info}");
    assert!(
        info.contains("\"name\":\"t\",\"rows\":1000"),
        "info: {info}"
    );

    client.ping().unwrap();

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"completed\":"), "stats: {stats}");
    assert!(stats.contains("\"p99_ns\":"), "stats: {stats}");
    server.stop();
}

#[test]
fn request_errors_leave_the_connection_usable() {
    let (server, _reference) = start();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let err = client
        .fetch(FetchRequest::range("nope", 0, 10))
        .unwrap_err();
    assert!(err.to_string().contains("unknown table"), "{err}");

    let err = client.fetch(FetchRequest::range("t", 0, 5000)).unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");

    let err = client.fetch(FetchRequest::row("t", 1000)).unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");

    // The connection survives request errors.
    let ok = client.fetch(FetchRequest::range("t", 0, 3)).unwrap();
    assert!(!ok.is_empty());
    client.ping().unwrap();
    server.stop();
}

/// A reply's terminator leaves with its last package on a `TCP_NODELAY`
/// socket, so small tiles do not wait for the client's delayed ACK —
/// which cost ~44 ms per single-package reply while the `Z` frame was a
/// write of its own behind Nagle.
#[test]
fn single_package_replies_do_not_wait_for_a_delayed_ack() {
    // A 37-row cap on 37-row packages: every tile and every cursor hop
    // is one package.
    let (server, reference) = start_with(
        ServeConfig::new()
            .workers(2)
            .package_rows(37)
            .window(3)
            .max_request_rows(37),
    );
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let mut replies: Vec<Duration> = (0..32u64)
        .map(|i| {
            let t = Instant::now();
            let body = client.fetch(FetchRequest::range("t", i * 29, 37)).unwrap();
            assert_eq!(body.iter().filter(|&&b| b == b'\n').count(), 37);
            t.elapsed()
        })
        .collect();
    replies.sort();
    let median = replies[replies.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median single-package reply took {median:?}"
    );

    // The whole table is a chain of 28 one-package tiles on the same
    // connection.
    let t = Instant::now();
    let whole = client.fetch(FetchRequest::range("t", 0, 1000)).unwrap();
    let per_tile = t.elapsed() / 28;
    assert_eq!(whole, reference[0].1, "cursor chain != generate output");
    assert!(
        per_tile < Duration::from_millis(10),
        "cursor chain took {per_tile:?} per tile"
    );
    server.stop();
}
