//! The three serve workloads: a loader pulling tiles and single rows
//! from a `pdgf serve` subprocess. Each caller waits for its reply, so
//! load is a closed loop: one client, one connection, the next request
//! sent when the previous reply's last byte has arrived.

use std::path::Path;
use std::time::Instant;

use pdgf::gen::SchemaRuntime;
use pdgf::output::CsvFormatter;
use pdgf::prng::mix64_pair;
use pdgf::runtime::{generate_table_range, RunConfig};
use pdgf::{FetchRequest, PdgfProject, ServeClient};

use crate::batch::{closed_loop, time_setups, tpch_project, Operation, SUBPROCESS_SETUPS};
use crate::host;
use crate::process::{self, Server};
use crate::spec::{Metrics, Workload};
use crate::verify::{oracle_range, oracle_ranges, Fingerprint, HashSink};
use crate::{Outcome, Res, Tally};

/// Scale factor the server loads: `lineitem` has 6,000,000 rows.
pub const SERVE_SF: &str = "1.0";
/// The table every request reads.
pub const TABLE: &str = "lineitem";
/// The server's default rows per package, which the in-process
/// comparisons must use to cut ranges the same way.
pub const PACKAGE_ROWS: u64 = 4_096;
/// Requests are drawn from a seeded list this long and cycled; the server
/// keeps no cache, so a repeated offset costs what a new one costs.
const RANGE_REQUESTS: usize = 64;
const TILE_REQUESTS: usize = 256;
const POINT_REQUESTS: usize = 4_096;
/// Seconds of requests before the measured window opens.
const WARMUP_SECONDS: f64 = 1.0;
/// One response in this many is compared byte for byte (by fingerprint);
/// every response is checked for its length.
const FULL_CHECK_EVERY: usize = 64;

/// One request of a workload's list and the reply it must get.
#[derive(Debug, Clone)]
pub struct Planned {
    /// First row.
    pub start: u64,
    /// Rows asked for (1 for a point lookup).
    pub rows: u64,
    /// Length and hash of the correct response body.
    pub expected: Fingerprint,
}

/// Connections of a serve workload, one closed-loop caller on each.
///
/// With a single caller a reply's latency on a small virtual machine is
/// set by whether the kernel wakes the next thread on the same CPU or on
/// another one (31 us against 130 us per point lookup on the host this
/// was defined on, flipping for seconds at a time), not by the code; with
/// every CPU busy that choice disappears, so every workload has more
/// callers than the host it was defined on has cores. The tile
/// workload's callers spend their time waiting on the stall described at
/// [`rows_per_request`], each connection being what one `pdgf fetch`
/// user has; four of them also give the window four times the requests,
/// and keep the CPUs busy once the stall is gone.
pub fn clients(workload: Workload) -> usize {
    match workload {
        Workload::ServeRangeHttp | Workload::ServeTileTcp => 4,
        Workload::ServePointHttp => 8,
        _ => 1,
    }
}

/// Rows per request of a serve workload: four packages for the range
/// workload, so every worker is busy; one thirty-second of a package
/// (about 17 KB of CSV) for tiles.
///
/// The tile size decides which regime the TCP front end is in. The
/// server writes a reply's `D` frame and then its `Z` frame, without
/// `TCP_NODELAY`, so the `Z` frame waits until the client's kernel has
/// acknowledged the `D` frame. On the host this was defined on (Linux
/// 6.18, loopback) tiles of 64, 128 and 256 rows got the delayed
/// acknowledgement (40 ms) on every request but a connection's first,
/// on every connection tried. From 384 rows (50 KB) up, and so at the
/// issue's 512, the client's kernel acknowledges at once on some
/// requests and not on others, a connection flipping between 0.5 ms and
/// 44 ms replies for seconds at a time — a run's median then says which
/// mode was more frequent, not what the code costs. 128 rows is a factor
/// of three away from that.
pub fn rows_per_request(workload: Workload) -> u64 {
    match workload {
        Workload::ServeRangeHttp => 4 * PACKAGE_ROWS,
        Workload::ServeTileTcp => PACKAGE_ROWS / 32,
        _ => 1,
    }
}

/// A seeded list of `count` requests of `workload`'s kind, with each
/// expected reply computed in process by [`generate_table_range`] on the
/// same range.
pub fn plan(workload: Workload, rt: &SchemaRuntime, seed: u64, count: usize) -> Res<Vec<Planned>> {
    let (table, t) = rt.table_by_name(TABLE).ok_or("the model has no lineitem")?;
    let rows = rows_per_request(workload);
    let config = RunConfig::new()
        .workers(host::workers())
        .package_rows(PACKAGE_ROWS);
    let formatter = CsvFormatter::new();
    (0..count as u64)
        .map(|i| {
            let start = mix64_pair(seed, i) % (t.size - rows + 1);
            let mut sink = HashSink::default();
            generate_table_range(
                rt,
                table,
                0,
                start..start + rows,
                &formatter,
                &mut sink,
                &config,
                None,
            )?;
            Ok(Planned {
                start,
                rows,
                expected: sink.0,
            })
        })
        .collect()
}

/// The request a [`Planned`] entry stands for.
pub fn request_for(workload: Workload, planned: &Planned) -> FetchRequest {
    if workload == Workload::ServePointHttp {
        FetchRequest::row(TABLE, planned.start)
    } else {
        FetchRequest::range(TABLE, planned.start, planned.rows)
    }
}

/// Connect over the protocol `workload` measures.
pub fn connect(workload: Workload, server: &Server) -> Res<ServeClient> {
    Ok(if workload == Workload::ServeTileTcp {
        ServeClient::connect(server.tcp)?
    } else {
        ServeClient::connect_http(server.http)?
    })
}

/// Spawn a server and wait until it answers a ping on `workload`'s
/// protocol: the set-up a loader pays before its first request.
pub fn ready_server(pdgf: &Path, workload: Workload, seed: u64) -> Res<(Server, ServeClient)> {
    let server = Server::spawn(pdgf, SERVE_SF, seed)?;
    let mut client = connect(workload, &server)?;
    client.ping()?;
    Ok((server, client))
}

/// Before timing: every table's head and tail, fetched over the measured
/// protocol, against the oracle; for the point workload also the first
/// 2,000 and last 200 rows of `lineitem`, one lookup each.
fn check_against_oracle(
    workload: Workload,
    client: &mut ServeClient,
    reference: &PdgfProject,
    tally: &mut Tally,
) {
    let rt = reference.runtime();
    let formatter = CsvFormatter::new();
    for (index, t) in rt.tables().iter().enumerate() {
        let (head, tail) = oracle_ranges(t.size);
        let (points_head, points_tail) = (0..t.size.min(2_000), t.size.saturating_sub(200)..t.size);
        for (range, by_point) in [
            (head, false),
            (tail, false),
            (points_head, true),
            (points_tail, true),
        ] {
            if by_point && !(workload == Workload::ServePointHttp && t.name == TABLE) {
                continue;
            }
            let expected = oracle_range(rt, index as u32, range.clone(), &formatter);
            let got = if by_point {
                // Point lookups are the rows' slices of the stream, so
                // they concatenate to the range.
                range
                    .clone()
                    .map(|row| client.fetch(FetchRequest::row(&t.name, row)))
                    .collect::<Result<Vec<_>, _>>()
                    .map(|rows| rows.concat())
            } else {
                client.fetch(FetchRequest::range(
                    &t.name,
                    range.start,
                    range.end - range.start,
                ))
            };
            tally.check(got.is_ok_and(|body| body == expected));
        }
    }
}

/// Send `planned` and check the reply; returns the caller-observed
/// seconds (send to last byte), the body length, and whether the reply
/// was the expected one. A failed request gets a fresh connection.
pub fn fetch_checked(
    workload: Workload,
    server: &Server,
    client: &mut ServeClient,
    planned: &Planned,
    full_check: bool,
) -> Res<(f64, u64, bool)> {
    let request = request_for(workload, planned);
    let t = Instant::now();
    let reply = client.fetch(request);
    let latency = t.elapsed().as_secs_f64();
    match reply {
        Ok(body) => {
            let ok = body.len() as u64 == planned.expected.bytes
                && (!full_check || Fingerprint::of(&body) == planned.expected);
            Ok((latency, body.len() as u64, ok))
        }
        Err(_) => {
            *client = connect(workload, server)?;
            Ok((latency, 0, false))
        }
    }
}

/// Run one serve workload: set-up samples, verification, then the
/// closed loop for `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    assert!(workload.is_serve());
    let pdgf = process::pdgf_binary()?;
    let mut metrics = Metrics::new();
    let setups = time_setups(SUBPROCESS_SETUPS, || ready_server(&pdgf, workload, seed))?;
    metrics.set("setup_s", crate::median(&setups));

    let reference = tpch_project(SERVE_SF, seed)?;
    let count = match workload {
        Workload::ServeRangeHttp => RANGE_REQUESTS,
        Workload::ServeTileTcp => TILE_REQUESTS,
        _ => POINT_REQUESTS,
    };
    let requests = plan(workload, reference.runtime(), seed, count)?;
    let (server, mut client) = ready_server(&pdgf, workload, seed)?;
    let mut tally = Tally::default();
    check_against_oracle(workload, &mut client, &reference, &mut tally);
    drop(client);

    let callers = clients(workload);
    let window = closed_loop(callers, WARMUP_SECONDS, seconds, |caller| {
        let mut client = connect(workload, &server)?;
        // Callers walk the shared list from evenly spaced starting points.
        let mut sent = caller * requests.len() / callers;
        let (server, requests) = (&server, &requests);
        Ok(move || {
            let planned = &requests[sent % requests.len()];
            sent += 1;
            let full_check = sent.is_multiple_of(FULL_CHECK_EVERY);
            let (latency, bytes, ok) =
                fetch_checked(workload, server, &mut client, planned, full_check)?;
            let mut checks = Tally::default();
            checks.check(ok);
            Ok(Operation {
                latency,
                bytes,
                checks,
            })
        })
    })?;
    window.record(&mut metrics);
    tally.absorb(window.checks);
    Ok(Outcome { tally, metrics })
}
