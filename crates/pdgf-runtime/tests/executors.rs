//! One core, two clients: a batch run and a service request over the
//! same rows at the same `package_rows` must produce the same packages —
//! same bytes, same boundaries — and both must match the row oracle.

#[path = "../../../tests/zoo/oracle.rs"]
mod oracle;

use std::sync::Arc;

use oracle::oracle_bytes;
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::{CsvFormatter, Formatter, Sink, XmlFormatter};
use pdgf_runtime::{generate_table_range, RowRequest, RowService, RunConfig, ServeConfig};
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

fn runtime(rows: u64) -> Arc<SchemaRuntime> {
    let schema = Schema::new("executors", 77).table(
        Table::new("t", &rows.to_string())
            .field(
                Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary(),
            )
            .field(Field::new(
                "v",
                SqlType::Integer,
                GeneratorSpec::Long {
                    min: Expr::parse("0").unwrap(),
                    max: Expr::parse("999999").unwrap(),
                },
            )),
    );
    Arc::new(SchemaRuntime::build(&schema, &MapResolver::new()).unwrap())
}

/// Sink keeping every write as its own chunk.
#[derive(Default)]
struct ChunkSink(Vec<Vec<u8>>);

impl Sink for ChunkSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.push(bytes.to_vec());
        Ok(())
    }
    fn finish(&mut self) -> std::io::Result<u64> {
        Ok(self.bytes_written())
    }
    fn bytes_written(&self) -> u64 {
        self.0.iter().map(|c| c.len() as u64).sum()
    }
}

/// Including the framing-only package of an empty table, a one-row
/// table, and a ragged tail; inline and pooled batch runs alike. The
/// first two are one-package replies, which the service's reader renders
/// itself, as the inline batch run does.
#[test]
fn batch_and_serve_agree_on_bytes_and_package_boundaries() {
    let framed: [Arc<dyn Formatter>; 2] = [
        Arc::new(CsvFormatter::new().with_header()),
        Arc::new(XmlFormatter),
    ];
    for (rows, range) in [(0u64, 0..0u64), (1, 0..1), (150, 0..150), (150, 3..150)] {
        let rt = runtime(rows);
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(2).package_rows(64),
            None,
        );
        for workers in [0usize, 2] {
            for formatter in &framed {
                let mut sink = ChunkSink::default();
                generate_table_range(
                    &rt,
                    0,
                    0,
                    range.clone(),
                    formatter.as_ref(),
                    &mut sink,
                    &RunConfig::new().workers(workers).package_rows(64),
                    None,
                )
                .unwrap();
                let served: Vec<Vec<u8>> = service
                    .submit(
                        RowRequest::range(0, 0, range.clone()),
                        Arc::clone(formatter),
                    )
                    .unwrap()
                    .collect();
                let what = format!(
                    "rows={rows} range={range:?} workers={workers} format={}",
                    formatter.name()
                );
                assert_eq!(sink.0, served, "{what}");
                assert_eq!(served.len() as u64, range.end.div_ceil(64).max(1), "{what}");
                assert_eq!(
                    served.concat(),
                    oracle_bytes(&rt, 0, 0, range.clone(), formatter.as_ref()),
                    "{what}"
                );
            }
        }
    }
}
