//! Property tests for traces: codec round-trips and generator
//! conservation laws.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use sdpm_disk::RpmLevel;
use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
use sdpm_trace::codec::{
    decode, decode_runs, encode, encode_runs, CodecError, DecodeStream, StreamEncoder,
};
use sdpm_trace::{
    collect, compress, generate, AppEvent, IoRequest, PowerAction, REvent, ReqKind, TenantEvent,
    TenantStream, Trace, TraceGenConfig,
};

fn event_strategy(pool: u32, nest: usize) -> impl Strategy<Value = AppEvent> {
    prop_oneof![
        (0u64..1000, 1u64..100, 0.0f64..10.0).prop_map(move |(first, iters, secs)| {
            AppEvent::Compute {
                nest,
                first_iter: first,
                iters,
                secs,
            }
        }),
        (
            0..pool,
            0u64..1_000_000,
            1u64..1_000_000,
            any::<bool>(),
            any::<bool>(),
            0u64..10_000
        )
            .prop_map(move |(d, block, size, write, seq, iter)| {
                AppEvent::Io(IoRequest {
                    disk: DiskId(d),
                    start_block: block,
                    size_bytes: size,
                    kind: if write { ReqKind::Write } else { ReqKind::Read },
                    sequential: seq,
                    nest,
                    iter,
                })
            }),
        (0..pool, 0u8..3, 0u8..11).prop_map(move |(d, a, l)| AppEvent::Power {
            disk: DiskId(d),
            action: match a {
                0 => PowerAction::SpinDown,
                1 => PowerAction::SpinUp,
                _ => PowerAction::SetRpm(RpmLevel(l)),
            },
        }),
    ]
}

proptest! {
    /// encode/decode round-trips arbitrary traces exactly.
    #[test]
    fn codec_round_trips(
        pool in 1u32..16,
        name in "[a-z0-9.]{0,20}",
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
    ) {
        // Build events with non-decreasing nest ids (validity not needed
        // for the codec, but keeps things tidy).
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut last_nest = 0usize;
        for (nest_inc, _) in events {
            last_nest += nest_inc % 2;
            let e = event_strategy(pool, last_nest)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace {
            name,
            pool_size: pool,
            events: evs,
        };
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    /// The streaming encoder (event-at-a-time, count backpatched) and the
    /// chunked decoder round-trip arbitrary traces exactly, at any chunk
    /// size — including chunks far smaller than the event count, so
    /// events cross chunk boundaries.
    #[test]
    fn streaming_codec_round_trips(
        pool in 1u32..16,
        name in "[a-z0-9.]{0,20}",
        chunk in 1usize..9,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut last_nest = 0usize;
        for (nest_inc, _) in events {
            last_nest += nest_inc % 2;
            let e = event_strategy(pool, last_nest)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name, pool_size: pool, events: evs };

        let mut enc = StreamEncoder::new(&t.name, t.pool_size);
        for e in &t.events {
            enc.push(e);
        }
        let bytes = enc.finish();
        // Byte-identical to the one-shot encoder.
        prop_assert_eq!(&bytes, &encode(&t));

        let mut dec = DecodeStream::chunked(&bytes, chunk).unwrap();
        let back = collect(&mut dec);
        prop_assert_eq!(back, t);
    }

    /// Cutting an encoded trace anywhere short of its full length makes
    /// the chunked decoder report `Truncated` — never a partial success,
    /// never a panic — even when the cut lands mid-chunk.
    #[test]
    fn streaming_codec_rejects_truncation_mid_chunk(
        pool in 1u32..8,
        chunk in 1usize..5,
        cut_seed in 0usize..10_000,
        events in proptest::collection::vec(0u32..1000, 1..40),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        for _ in events {
            let e = event_strategy(pool, 0)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name: "cut".into(), pool_size: pool, events: evs };
        let bytes = encode(&t);
        let cut = cut_seed % (bytes.len() - 1).max(1);

        match DecodeStream::chunked(&bytes[..cut], chunk) {
            // Header itself was cut.
            Err(e) => prop_assert_eq!(e, CodecError::Truncated),
            Ok(mut dec) => {
                let err = loop {
                    match dec.try_next_chunk() {
                        Ok(Some(_)) => {}
                        Ok(None) => panic!("truncated stream decoded to completion"),
                        Err(e) => break e,
                    }
                };
                prop_assert_eq!(err, CodecError::Truncated);
            }
        }
    }

    /// Trace generation conserves compute time, covers each scanned byte
    /// exactly once per cold sweep, and yields only valid traces.
    #[test]
    fn generation_conservation(
        elems in 64u64..4096,
        chunk_pow in 7u32..14,
        factor in 1u32..8,
        cycles in 1.0f64..2000.0,
    ) {
        let chunk = 1u64 << chunk_pow;
        let pool = DiskPool::new(8);
        let file = ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: factor,
                stripe_bytes: 4096,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![file],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(elems)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: cycles,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        p.validate(pool).unwrap();
        let t = generate(&p, pool, TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: false,
        });
        prop_assert_eq!(t.validate(), Ok(()));
        let stats = t.stats();
        // Cold sequential scan: every byte fetched exactly once.
        prop_assert_eq!(stats.bytes, elems * 8);
        // Compute fully accounted.
        let expected = elems as f64 * cycles / Program::PAPER_CLOCK_HZ;
        prop_assert!((stats.compute_secs - expected).abs() < 1e-9);
        // Requests equal the chunk count (split across stripes).
        let chunks = (elems * 8).div_ceil(chunk);
        prop_assert!(stats.requests >= chunks);
    }

    /// Run compression is lossless on arbitrary event sequences: lowering
    /// the compressed form reproduces exactly the events it was fed,
    /// whatever mix of compute spans, requests, and power directives.
    #[test]
    fn compression_round_trips_arbitrary_event_sequences(
        pool in 1u32..16,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..80),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut last_nest = 0usize;
        for (nest_inc, _) in events {
            last_nest += nest_inc % 2;
            let e = event_strategy(pool, last_nest)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name: "arb".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        prop_assert_eq!(rt.lower(), t);
    }

    /// Rotating periodic traces (the striped-layout shape) compress into
    /// genuine runs that lower back exactly; a single perturbed request
    /// anywhere still round-trips.
    #[test]
    fn compression_recovers_rotating_periodic_structure(
        n in 4u64..48,
        m in 1u64..7,
        q in 1u64..4,
        perturb_seed in 0usize..1200,
    ) {
        // The vendored proptest has no `option` module; low seeds mean
        // "leave the trace clean".
        let perturb = (perturb_seed >= 200).then_some(perturb_seed);
        let pool = 8u32;
        let mut evs = Vec::new();
        for k in 0..n {
            evs.push(AppEvent::Compute { nest: 0, first_iter: k * 4, iters: 4, secs: 1.0e-6 });
            for j in 0..q {
                evs.push(AppEvent::Io(IoRequest {
                    disk: DiskId((((k % m) + j) % u64::from(pool)) as u32),
                    start_block: (k / m) * 64 + j * 100_000,
                    size_bytes: 4096,
                    kind: ReqKind::Read,
                    sequential: false,
                    nest: 0,
                    iter: (k + 1) * 4,
                }));
            }
        }
        let perturbed = perturb.map(|seed| {
            let idx = seed % evs.len();
            if let AppEvent::Io(r) = &mut evs[idx] {
                r.start_block += 7;
            }
            idx
        });
        let t = Trace { name: "rot".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        prop_assert_eq!(rt.lower(), t.clone());
        let fused = rt.events.iter().any(|e| matches!(e, REvent::Run(_)));
        if perturbed.is_none() && n >= 4 * m {
            prop_assert!(fused, "a clean rotation-{} trace of {} periods must fuse", m, n);
            prop_assert!((rt.events.len() as u64) < t.events.len() as u64);
        }
    }

    /// The v2 codec round-trips run-compressed traces exactly, and the
    /// decoded records lower back to the original per-event sequence.
    #[test]
    fn run_codec_round_trips(
        pool in 1u32..16,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut last_nest = 0usize;
        for (nest_inc, _) in events {
            last_nest += nest_inc % 2;
            let e = event_strategy(pool, last_nest)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name: "v2".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        let bytes = encode_runs(&rt).unwrap();
        let decoded = decode_runs(&bytes).unwrap();
        prop_assert_eq!(&decoded, &rt);
        prop_assert_eq!(decoded.lower(), t);
    }

    /// Cutting a v2 encoding anywhere short of its full length makes the
    /// run decoder report `Truncated` — never a partial success, never a
    /// panic — even when the cut lands inside a run record.
    #[test]
    fn run_codec_rejects_truncation_mid_chunk(
        n in 4u64..24,
        m in 1u64..5,
        cut_seed in 0usize..10_000,
    ) {
        let pool = 8u32;
        let mut evs = Vec::new();
        for k in 0..n {
            evs.push(AppEvent::Compute { nest: 0, first_iter: k * 2, iters: 2, secs: 5.0e-7 });
            evs.push(AppEvent::Io(IoRequest {
                disk: DiskId((k % m) as u32),
                start_block: (k / m) * 32,
                size_bytes: 2048,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: (k + 1) * 2,
            }));
        }
        let t = Trace { name: "cutv2".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        let bytes = encode_runs(&rt).unwrap();
        let cut = cut_seed % (bytes.len() - 1).max(1);

        prop_assert_eq!(decode_runs(&bytes[..cut]), Err(CodecError::Truncated));
    }

    /// Fuzz: arbitrary byte strings fed to every decoder entry point
    /// produce an error or a trace — never a panic. Covers garbage that
    /// is not just a truncation of a valid encoding.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..6,
    ) {
        let _ = decode(&bytes);
        let _ = decode_runs(&bytes);
        if let Ok(mut dec) = DecodeStream::chunked(&bytes, chunk) {
            while let Ok(Some(_)) = dec.try_next_chunk() {}
        }
    }

    /// Fuzz: a valid header followed by arbitrary garbage exercises the
    /// record readers (not just header rejection); still error-not-panic.
    #[test]
    fn valid_header_with_garbage_tail_never_panics(
        version_v2 in any::<bool>(),
        pool in 1u32..16,
        count in 0u64..10_000,
        tail in proptest::collection::vec(any::<u8>(), 0..400),
        chunk in 1usize..6,
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SDPM");
        bytes.extend_from_slice(&(if version_v2 { 2u16 } else { 1u16 }).to_le_bytes());
        bytes.extend_from_slice(&pool.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(b"fz");
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = decode(&bytes);
        let _ = decode_runs(&bytes);
        if let Ok(mut dec) = DecodeStream::chunked(&bytes, chunk) {
            while let Ok(Some(_)) = dec.try_next_chunk() {}
        }
    }

    /// Nominal arrivals are non-decreasing and one per request.
    #[test]
    fn nominal_arrivals_monotone(
        elems in 64u64..2048,
        chunk_pow in 7u32..12,
    ) {
        let chunk = 1u64 << chunk_pow;
        let pool = DiskPool::new(4);
        let file = ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 2048,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![file],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(elems)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 100.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let t = generate(&p, pool, TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: true,
        });
        let arrivals = t.nominal_arrivals();
        prop_assert_eq!(arrivals.len() as u64, t.stats().requests);
        for w in arrivals.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}

/// An attacker-controlled count of `u64::MAX` in the header must not
/// drive a pre-allocation: the decoders cap their reservations by the
/// buffer length, so the hostile count surfaces as `Truncated` long
/// before memory is at risk.
#[test]
fn hostile_length_prefix_does_not_preallocate() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SDPM");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    assert_eq!(decode_runs(&bytes).unwrap_err(), CodecError::Truncated);

    // Same for a v2 run record claiming u32::MAX request templates.
    let mut v2 = Vec::new();
    v2.extend_from_slice(b"SDPM");
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.extend_from_slice(&4u32.to_le_bytes());
    v2.extend_from_slice(&0u16.to_le_bytes());
    v2.extend_from_slice(&1u64.to_le_bytes()); // one record
    v2.push(3); // tag: Run
    v2.extend_from_slice(&1u64.to_le_bytes()); // count
    v2.extend_from_slice(&0u32.to_le_bytes()); // nest
    v2.extend_from_slice(&0u64.to_le_bytes()); // first_iter
    v2.extend_from_slice(&1u64.to_le_bytes()); // iters_per_rep
    v2.extend_from_slice(&1.0f64.to_le_bytes()); // secs_per_rep
    v2.extend_from_slice(&1u32.to_le_bytes()); // rotation
    v2.extend_from_slice(&u32::MAX.to_le_bytes()); // nreqs: hostile
    assert_eq!(decode_runs(&v2).unwrap_err(), CodecError::Truncated);
}

proptest! {
    /// Multi-tenant merge determinism (the scenario layer's contract):
    /// K interleaved tenant streams, in a random slice order, merge to
    /// exactly the sorted order of all their events — the sort-based
    /// oracle below. Extends the seq-tiebreak tests in `trace::stream`
    /// to the `(time, tenant, seq)` tiebreak.
    #[test]
    fn tenant_merge_matches_sort_oracle_in_any_input_order(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..30), 1..7),
        seed in any::<u64>(),
    ) {
        use sdpm_trace::{merge_tenants, TimedEvent};
        // Quantized timestamps force plenty of cross-tenant ties, the
        // case the tenant tiebreak exists for; the length range draws
        // empty streams and the one-stream case.
        let streams: Vec<TenantStream> = raw
            .iter()
            .enumerate()
            .map(|(tenant, times)| {
                let mut ts = times.clone();
                ts.sort_unstable();
                TenantStream {
                    tenant: tenant as u32,
                    events: ts
                        .iter()
                        .enumerate()
                        .map(|(i, &q)| TimedEvent {
                            at_secs: f64::from(q) * 0.25,
                            seq: i as u64,
                            event: AppEvent::Io(IoRequest {
                                disk: DiskId(q % 2),
                                start_block: u64::from(q),
                                size_bytes: 4096,
                                kind: ReqKind::Read,
                                sequential: false,
                                nest: 0,
                                iter: i as u64,
                            }),
                        })
                        .collect(),
                }
            })
            .collect();
        let reference = sort_merge_oracle(&streams);
        // Seeded Fisher-Yates permutation of the input slice order; the
        // merge keys on tenant ids, so the order must not matter.
        let mut order: Vec<usize> = (0..streams.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let shuffled: Vec<TenantStream> = order.iter().map(|&i| streams[i].clone()).collect();
        let merged = merge_tenants(&shuffled);
        prop_assert_eq!(merged.len(), reference.len());
        for (a, b) in merged.iter().zip(&reference) {
            prop_assert_eq!(a.at_secs.to_bits(), b.at_secs.to_bits(), "timestamps drifted");
            prop_assert_eq!(a.tenant, b.tenant);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(&a.event, &b.event);
        }
    }
}

/// The merge's specification: concatenate every stream and sort by
/// `(time, tenant, seq)`. Keys are unique (tenant ids are disjoint and
/// `seq` strictly increases within a stream), so the unstable sort is
/// the stable order.
fn sort_merge_oracle(streams: &[TenantStream]) -> Vec<TenantEvent> {
    let mut out: Vec<TenantEvent> = streams
        .iter()
        .flat_map(|s| {
            s.events.iter().map(|e| TenantEvent {
                at_secs: e.at_secs,
                tenant: s.tenant,
                seq: e.seq,
                event: e.event,
            })
        })
        .collect();
    out.sort_unstable_by_key(|e| (e.at_secs.to_bits(), e.tenant, e.seq));
    out
}
