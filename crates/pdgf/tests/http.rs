//! HTTP/1.1 conformance tests for the hand-rolled front end: real
//! sockets against an in-process [`Server`] with the HTTP listener
//! attached. Pins the protocol behaviors DESIGN.md documents —
//! keep-alive reuse, pipelining, the error map, chunked streaming (and
//! unframed HTTP/1.0 bodies), and resumable cursor chains that reassemble byte-equal to `pdgf
//! generate`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pdgf::runtime::ServeConfig;
use pdgf::{FetchRequest, OutputFormat, Pdgf, ServeClient, Server, ServerHandle, ServerOptions};

const MODEL: &str = r#"
<schema name="httptest">
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

/// Server with both listeners plus the per-format reference bytes from
/// the batch path. `max_request_rows` is deliberately smaller than the
/// table so wide requests produce cursor chains.
fn start(max_request_rows: u64) -> (ServerHandle, Vec<(OutputFormat, Vec<u8>)>) {
    let project = Pdgf::from_xml_str(MODEL).unwrap().build().unwrap();
    let reference: Vec<(OutputFormat, Vec<u8>)> = OutputFormat::all()
        .into_iter()
        .map(|f| (f, project.table_to_string("t", f).unwrap().into_bytes()))
        .collect();
    let runtime = Arc::new(project.into_runtime());
    let options = ServerOptions::builder()
        .config(
            ServeConfig::new()
                .workers(2)
                .package_rows(37)
                .window(3)
                .max_request_rows(max_request_rows),
        )
        .build()
        .unwrap();
    let server = Server::bind(runtime, "127.0.0.1:0", options, None)
        .unwrap()
        .with_http("127.0.0.1:0")
        .unwrap();
    (server.spawn().unwrap(), reference)
}

/// One parsed HTTP response: status, headers (lower-cased names), body.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one full response off the reader (Content-Length or chunked).
/// Returns `None` on EOF before a status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split(' ').nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':')?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).ok()?;
            let size = usize::from_str_radix(size_line.trim_end(), 16).ok()?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk).ok()?;
            assert_eq!(&chunk[size..], b"\r\n", "chunk not CRLF-terminated");
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())?;
        body = vec![0u8; len];
        reader.read_exact(&mut body).ok()?;
    }
    Some(Response {
        status,
        headers,
        body,
    })
}

/// Issue one GET on a fresh connection and parse the response.
fn get(addr: SocketAddr, target: &str) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(
        &stream,
        "GET {target} HTTP/1.1\r\nHost: pdgf\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(&mut reader).expect("one response")
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, reference) = start(10_000);
    let addr = server.http_addr().unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..3u64 {
        write!(
            &stream,
            "GET /v1/default/t/rows?start={}&count=10 HTTP/1.1\r\nHost: pdgf\r\n\r\n",
            i * 10
        )
        .unwrap();
        let r = read_response(&mut reader).expect("response on reused connection");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
        assert!(!r.body.is_empty());
    }
    // All three requests must have landed on ONE admitted connection.
    let whole = &reference[0].1;
    let first_30: Vec<u8> = String::from_utf8(whole.clone())
        .unwrap()
        .lines()
        .take(30)
        .flat_map(|l| format!("{l}\n").into_bytes())
        .collect();
    let r = get(addr, "/v1/default/t/rows?start=0&count=30");
    assert_eq!(r.body, first_30, "rows endpoint != generate prefix");
    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, reference) = start(10_000);
    let addr = server.http_addr().unwrap();
    let csv = String::from_utf8(reference[0].1.clone()).unwrap();
    let line = |n: usize| format!("{}\n", csv.lines().nth(n).unwrap()).into_bytes();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Both requests hit the wire before either response is read.
    write!(
        &stream,
        "GET /v1/default/t/row/5 HTTP/1.1\r\nHost: pdgf\r\n\r\n\
         GET /v1/default/t/row/6 HTTP/1.1\r\nHost: pdgf\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let first = read_response(&mut reader).expect("first pipelined response");
    let second = read_response(&mut reader).expect("second pipelined response");
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.body, line(5), "first response is row 5");
    assert_eq!(second.body, line(6), "second response is row 6");
    server.stop();
}

/// RFC 9112 §6.1: a reply to HTTP/1.0 carries no `Transfer-Encoding`.
/// The range body goes unframed and the server's close ends it — even
/// when the client asked for keep-alive.
#[test]
fn http10_range_bodies_are_unframed_and_end_at_close() {
    let (server, reference) = start(10_000);
    let addr = server.http_addr().unwrap();
    let csv = String::from_utf8(reference[0].1.clone()).unwrap();
    let first_3: String = csv.lines().take(3).map(|l| format!("{l}\n")).collect();
    let mut cases = vec![(
        "/v1/default/t/rows?start=0&count=3".to_string(),
        "Connection: keep-alive\r\n",
        first_3.into_bytes(),
    )];
    for (format, whole) in &reference {
        let target = format!("/v1/default/t/rows?format={}", format.extension());
        cases.push((target, "", whole.clone()));
    }
    for (target, header, expected) in cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {target} HTTP/1.0\r\n{header}\r\n").unwrap();
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .expect("the server closes the connection to end the body");
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
        assert!(head.starts_with("http/1.1 200 ok\r\n"), "{target}: {head}");
        assert!(!head.contains("transfer-encoding"), "{target}: {head}");
        assert!(head.contains("\r\nconnection: close"), "{target}: {head}");
        assert_eq!(&raw[split + 4..], expected, "{target}: body != generate");
    }
    server.stop();
}

#[test]
fn malformed_requests_get_400_and_the_connection_closes() {
    let (server, _reference) = start(10_000);
    let addr = server.http_addr().unwrap();

    for bad in [
        "NONSENSE\r\n\r\n",
        "GET /v1/default/t/rows HTTP/9.9\r\n\r\n",
        "GET /v1/default/t/rows HTTP/1.1\r\nno colon here\r\n\r\n",
        "POST-ish\r\n\r\n",
    ] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream).write_all(bad.as_bytes()).unwrap();
        let r = read_response(&mut reader).expect("a 400 before close");
        assert_eq!(r.status, 400, "request {bad:?}");
        assert_eq!(r.header("connection"), Some("close"));
        // And the server really closes: the next read is EOF.
        assert!(
            read_response(&mut reader).is_none(),
            "connection stayed open"
        );
    }

    // Non-GET methods are recognized but refused with the Allow header.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream)
        .write_all(b"DELETE /v1/default/t/rows HTTP/1.1\r\nHost: pdgf\r\n\r\n")
        .unwrap();
    let r = read_response(&mut reader).expect("405 response");
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    server.stop();
}

#[test]
fn unknown_model_table_and_bad_params_map_to_the_documented_statuses() {
    let (server, _reference) = start(10_000);
    let addr = server.http_addr().unwrap();

    assert_eq!(get(addr, "/v1/nope/t/rows?count=1").status, 404);
    assert_eq!(get(addr, "/v1/default/nope/rows?count=1").status, 404);
    assert_eq!(get(addr, "/v1/nope/info").status, 404);
    assert_eq!(get(addr, "/nowhere").status, 404);
    assert_eq!(get(addr, "/v1/default/t/row/1000").status, 404);
    assert_eq!(get(addr, "/v1/default/t/rows?start=bogus").status, 400);
    assert_eq!(get(addr, "/v1/default/t/rows?format=yaml").status, 400);
    assert_eq!(get(addr, "/v1/default/t/rows?cursor=nonsense").status, 400);
    assert_eq!(
        get(addr, "/v1/default/t/rows?start=900&count=500").status,
        416,
        "range beyond the table end"
    );

    // Semantic errors keep the connection usable.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(
        &stream,
        "GET /v1/default/nope/rows HTTP/1.1\r\nHost: pdgf\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 404);
    write!(
        &stream,
        "GET /v1/default/t/row/3 HTTP/1.1\r\nHost: pdgf\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);
    server.stop();
}

#[test]
fn info_and_metrics_endpoints_answer_json() {
    let (server, _reference) = start(10_000);
    let addr = server.http_addr().unwrap();

    let info = get(addr, "/v1/default/info");
    assert_eq!(info.status, 200);
    let body = String::from_utf8(info.body).unwrap();
    assert!(body.contains("\"schema\":\"httptest\""), "info: {body}");
    assert!(
        body.contains("\"name\":\"t\",\"rows\":1000"),
        "info: {body}"
    );

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let body = String::from_utf8(metrics.body).unwrap();
    assert!(
        body.contains("\"server\":{\"requests\":"),
        "metrics: {body}"
    );
    assert!(body.contains("\"name\":\"default\""), "metrics: {body}");
    assert!(body.contains("\"telemetry\":null"), "metrics: {body}");
    server.stop();
}

#[test]
fn oversized_ranges_chain_cursors_byte_equal_to_generate() {
    // Cap far below the table size: a whole-table request needs 4 tiles.
    let (server, reference) = start(300);
    let addr = server.http_addr().unwrap();

    for (format, whole) in &reference {
        let mut body = Vec::new();
        let mut target = format!(
            "/v1/default/t/rows?start=0&count=1000&format={}",
            format.extension()
        );
        let mut hops = 0;
        loop {
            let r = get(addr, &target);
            assert_eq!(r.status, 200);
            body.extend_from_slice(&r.body);
            match r.header("x-pdgf-next") {
                Some(token) => {
                    // The Link header carries the same token, RFC 8288 framed.
                    let link = r.header("link").expect("Link accompanies X-Pdgf-Next");
                    assert!(link.contains(token), "link {link:?} vs token {token:?}");
                    assert!(link.ends_with("; rel=\"next\""), "link: {link:?}");
                    target = format!("/v1/default/t/rows?cursor={token}");
                    hops += 1;
                }
                None => break,
            }
        }
        assert_eq!(hops, 3, "1000 rows at a 300-row cap is 4 tiles");
        assert_eq!(
            &body,
            whole,
            "format {}: chained cursor fetches != generate output",
            format.extension()
        );
    }
    server.stop();
}

#[test]
fn http_client_transport_matches_tcp_and_follows_cursors() {
    let (server, reference) = start(300);
    let http = server.http_addr().unwrap();
    let tcp = server.addr();

    let mut over_http = ServeClient::connect_http(http).unwrap();
    let mut over_tcp = ServeClient::connect(tcp).unwrap();
    for (format, whole) in &reference {
        // Both transports hide the cursor chain behind one fetch call.
        let req = FetchRequest::range("t", 0, 1000).format(*format);
        let h = over_http.fetch(req.clone()).unwrap();
        let t = over_tcp.fetch(req).unwrap();
        assert_eq!(&h, whole, "http transport differs from generate");
        assert_eq!(h, t, "transports disagree");
    }

    // Point lookups and the JSON endpoints work over HTTP too.
    let row = over_http.fetch(FetchRequest::row("t", 7)).unwrap();
    let whole = String::from_utf8(reference[0].1.clone()).unwrap();
    assert_eq!(
        String::from_utf8(row).unwrap(),
        format!("{}\n", whole.lines().nth(7).unwrap())
    );
    assert!(over_http
        .info()
        .unwrap()
        .contains("\"schema\":\"httptest\""));
    assert!(over_http.stats().unwrap().contains("\"completed\":"));
    over_http.ping().unwrap();
    server.stop();
}
