//! Loom models of the execution core as its clients drive it: ticket
//! queue → render into a pooled buffer → reorder → ready → reader, plus
//! admission and shutdown. The core imports its primitives through the
//! `cfg(loom)` facade, so the real service runs under the model harness
//! unmodified. Checks the properties the pipeline's correctness rests
//! on: no lost package, in-order delivery under contention, exact cursor
//! tiling, and no lost wake-up at shutdown. Build with
//! `RUSTFLAGS="--cfg loom" cargo test -p pdgf-runtime --test loom`
//! (see `scripts/concurrency.sh`).
#![cfg(loom)]

mod serve_models {
    //! The [`RowService`] ticket-queue/`Condvar` delivery path, the
    //! `submit_clamped` cursor admission path, and shutdown.
    use std::sync::Arc;

    use pdgf_gen::{MapResolver, SchemaRuntime};
    use pdgf_output::{CsvFormatter, Formatter};
    use pdgf_runtime::serve::{RowRequest, RowService, ServeConfig, SubmitError};
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

    fn runtime(rows: u64) -> Arc<SchemaRuntime> {
        let schema = Schema::new("serve-loom", 77).table(
            Table::new("t", &format!("{rows}"))
                .field(
                    Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                        .primary(),
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

    fn formatter() -> Arc<dyn Formatter> {
        Arc::new(CsvFormatter::new())
    }

    /// Three clients race full-table requests through a two-worker
    /// service. The ticket queue hands packages to whichever worker is
    /// free, the reorder buffer re-sequences them, and the `ready`
    /// condvar hands them to the reader — every client must still see
    /// the identical in-order byte stream, every iteration.
    #[test]
    fn row_service_delivers_in_order_under_contention() {
        const ROWS: u64 = 96;
        let rt = runtime(ROWS);
        // Reference bytes from an uncontended single-client drain.
        let expected: Vec<u8> = {
            let service = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(1).package_rows(8).window(2),
                None,
            );
            let mut stream = service
                .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                .unwrap();
            let mut out = Vec::new();
            while let Some(pkg) = stream.next_package() {
                out.extend_from_slice(&pkg);
            }
            out
        };
        let expected = Arc::new(expected);
        let rt2 = Arc::clone(&rt);
        loom::model(move || {
            let service = Arc::new(RowService::new(
                Arc::clone(&rt2),
                ServeConfig::new().workers(2).package_rows(8).window(3),
                None,
            ));
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let expected = Arc::clone(&expected);
                    loom::thread::spawn(move || {
                        let mut stream = service
                            .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                            .unwrap();
                        let mut out = Vec::new();
                        while let Some(pkg) = stream.next_package() {
                            out.extend_from_slice(&pkg);
                        }
                        assert_eq!(
                            out, *expected,
                            "contended stream diverged from the uncontended bytes"
                        );
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            let stats = service.stats();
            assert_eq!(stats.completed, 3, "every request must complete");
            assert_eq!(stats.aborted, 0);
        });
    }

    /// Two cursors tile the same table concurrently via
    /// `submit_clamped`: each admission serves exactly
    /// `max_request_rows` rows (except the final tile) and reports the
    /// resume row; the concatenated tiles must equal one unclamped
    /// response even while another cursor races the admission path.
    #[test]
    fn submit_clamped_cursors_tile_byte_identically() {
        const ROWS: u64 = 60;
        const CAP: u64 = 16;
        let rt = runtime(ROWS);
        let expected: Vec<u8> = {
            let service = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(1).package_rows(8).window(2),
                None,
            );
            let mut stream = service
                .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                .unwrap();
            let mut out = Vec::new();
            while let Some(pkg) = stream.next_package() {
                out.extend_from_slice(&pkg);
            }
            out
        };
        let expected = Arc::new(expected);
        let rt2 = Arc::clone(&rt);
        loom::model(move || {
            let service = Arc::new(RowService::new(
                Arc::clone(&rt2),
                ServeConfig::new()
                    .workers(2)
                    .package_rows(8)
                    .window(2)
                    .max_request_rows(CAP),
                None,
            ));
            let cursors: Vec<_> = (0..2)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let expected = Arc::clone(&expected);
                    loom::thread::spawn(move || {
                        let mut out = Vec::new();
                        let mut cursor = 0u64;
                        loop {
                            let admitted = service
                                .submit_clamped(RowRequest::range(0, 0, cursor..ROWS), formatter())
                                .unwrap();
                            let served_to = admitted.resume_at.unwrap_or(ROWS);
                            assert!(
                                served_to - cursor <= CAP,
                                "tile wider than the admission cap"
                            );
                            if served_to < ROWS {
                                assert_eq!(
                                    served_to - cursor,
                                    CAP,
                                    "non-final tile must serve exactly the cap"
                                );
                            }
                            let mut stream = admitted.stream;
                            while let Some(pkg) = stream.next_package() {
                                out.extend_from_slice(&pkg);
                            }
                            match admitted.resume_at {
                                Some(next) => cursor = next,
                                None => break,
                            }
                        }
                        assert_eq!(
                            out, *expected,
                            "clamped tiles did not concatenate to the unclamped bytes"
                        );
                    })
                })
                .collect();
            for c in cursors {
                c.join().unwrap();
            }
            assert_eq!(service.stats().aborted, 0);
        });
    }

    /// A one-package reply, rendered by its own reader, races a
    /// multi-package reply rendered by the worker and a `shutdown`. Each
    /// reader gets all of its bytes or a clean prefix of them, every
    /// request is booked as completed or aborted, and no buffer is
    /// stranded: the pool is short exactly the packages readers hold.
    #[test]
    fn one_package_reply_races_a_worker_reply_and_shutdown() {
        const ROWS: u64 = 24;
        let rt = runtime(ROWS);
        let reference = RowService::new(Arc::clone(&rt), ServeConfig::new().workers(1), None);
        let expected = Arc::new([
            reference.row_bytes(0, 0, 5, formatter()).unwrap(),
            reference
                .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                .unwrap()
                .flatten()
                .collect(),
        ]);
        drop(reference);
        loom::model(move || {
            let mut service = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(1).package_rows(8).window(2),
                None,
            );
            let streams = [
                service.submit(RowRequest::point(0, 0, 5), formatter()),
                service.submit(RowRequest::range(0, 0, 0..ROWS), formatter()),
            ];
            let readers: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(i, stream)| {
                    let mut stream = stream.unwrap();
                    let expected = Arc::clone(&expected);
                    loom::thread::spawn(move || {
                        let (mut out, mut packages) = (Vec::new(), 0i64);
                        while let Some(pkg) = stream.next_package() {
                            out.extend_from_slice(&pkg);
                            packages += 1;
                        }
                        assert!(
                            expected[i].starts_with(&out),
                            "reply {i} is not a prefix of its uncontended bytes"
                        );
                        packages
                    })
                })
                .collect();
            service.shutdown();
            let received: i64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            let stats = service.stats();
            assert_eq!(stats.completed + stats.aborted, 2);
            assert_eq!(
                service.buffers_outstanding(),
                received,
                "a buffer was stranded"
            );
        });
    }

    /// Shutdown must wake every worker, parked or about to park. The
    /// stop flag is set under the queue lock and workers wait without a
    /// timeout, so a lost wake-up would hang this model (and the join
    /// inside `shutdown`) rather than cost a timeout. One service stops
    /// while its workers are still racing into their first wait, the
    /// other after serving a request.
    #[test]
    fn shutdown_wakes_parked_workers() {
        let rt = runtime(16);
        loom::model(move || {
            let mut fresh = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(3).package_rows(8),
                None,
            );
            fresh.shutdown();

            let mut used = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(3).package_rows(8),
                None,
            );
            let served = used
                .submit(RowRequest::range(0, 0, 0..16), formatter())
                .unwrap()
                .count();
            assert_eq!(served, 2, "two 8-row packages");
            used.shutdown();
            assert_eq!(
                used.submit(RowRequest::range(0, 0, 0..16), formatter())
                    .err(),
                Some(SubmitError::ShuttingDown)
            );
        });
    }
}
