//! The distributed equivalence harness: a campaign served by
//! `serve_campaign` to TCP workers must produce a **byte-identical**
//! report to the in-process `shards = 1` sequential run — for any
//! worker count, and under injected faults.
//!
//! Three layers of proof:
//!
//! * loopback fleets of 1, 2 and 4 real workers on two scenarios,
//!   compared by [`ExperimentOutput::fingerprint`] *and* the rendered
//!   table text (the user-visible artifact);
//! * fault injection with hand-driven fake workers speaking the
//!   blocking protocol helpers: a worker killed mid-slice (lease
//!   re-issued on disconnect), a stalled worker that never heartbeats
//!   (lease times out), and a duplicated slice result (deduped by slice
//!   index) — the campaign must still finish and still match the
//!   sequential bits;
//! * handshake policing: a version-skewed worker is denied, and peers
//!   that announce a huge first frame or never speak are dropped,
//!   without damaging the campaign;
//! * the shutdown contract of the blocking I/O model: the coordinator's
//!   sockets are closed when `serve_campaign` returns, and a pipelined
//!   worker reads a hang-up as "campaign finished without me";
//! * the worker's side of the exchange, against fake coordinators: it
//!   asks for its next lease before shipping a finished result, never
//!   naps on a `Wait` with a result in hand, and re-arms every lease on
//!   a heartbeat deadline however often other results arrive.
//!
//! Timeouts here are aggressively short (`lease_timeout` 250 ms,
//! heartbeats every 50 ms) so the failure paths run in test time; the
//! heartbeat thread keeps honest-but-slow slices alive.

use mpath::core::distrib::{read_msg_blocking, write_msg_blocking, Msg, PROTO_VERSION};
use mpath::core::experiment::OUTPUT_WIRE_VERSION;
use mpath::core::{
    report, run_worker, serve_campaign, CampaignJob, ExperimentOutput, ScenarioRegistry,
    ScenarioSpec, ServeOptions, ServeReport, WorkerOptions, WorkerReport,
};
use mpath::netsim::SimDuration;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn job(name: &str) -> CampaignJob {
    let spec = ScenarioRegistry::builtin().get(name).expect("builtin scenario").clone();
    CampaignJob {
        spec,
        seed: 42,
        duration_us: SimDuration::from_mins(40).as_micros(),
        slice_width_us: SimDuration::from_mins(10).as_micros(),
    }
}

/// The in-process reference: the same job, sequentially.
fn sequential(j: &CampaignJob) -> ExperimentOutput {
    let mut cfg = j.config();
    cfg.shards = 1;
    mpath::core::run_experiment(j.spec.topology(j.seed), cfg)
}

fn rendered(spec: &ScenarioSpec, out: &ExperimentOutput) -> String {
    if spec.round_trip {
        analysis::render_table7(&report::table7(out))
    } else {
        analysis::render_table5("distributed", &report::table5(out))
    }
}

fn fast_serve() -> ServeOptions {
    ServeOptions { lease_timeout: Duration::from_millis(250), poll_ms: 50 }
}

fn fast_worker() -> WorkerOptions {
    WorkerOptions { heartbeat: Duration::from_millis(50), jobs: 1 }
}

/// Binds a loopback coordinator and returns its join handle + address.
fn spawn_coordinator(
    j: &CampaignJob,
) -> (std::thread::JoinHandle<ServeReport>, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let serve_job = j.clone();
    let handle = std::thread::spawn(move || {
        serve_campaign(listener, serve_job, fast_serve()).expect("campaign serves")
    });
    (handle, addr)
}

fn spawn_workers(addr: SocketAddr, count: usize) -> Vec<std::thread::JoinHandle<WorkerReport>> {
    (0..count)
        .map(|_| std::thread::spawn(move || run_worker(addr, fast_worker()).expect("worker runs")))
        .collect()
}

fn distributed(j: &CampaignJob, workers: usize) -> (ServeReport, Vec<WorkerReport>) {
    let (coordinator, addr) = spawn_coordinator(j);
    let handles = spawn_workers(addr, workers);
    let report = coordinator.join().expect("coordinator thread");
    let worker_reports = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
    (report, worker_reports)
}

/// A fake worker's handshake: speak the blocking protocol far enough to
/// hold a `Job`, ready to misbehave.
fn fake_handshake(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    write_msg_blocking(
        &mut s,
        &Msg::Hello { proto: PROTO_VERSION, output_wire: OUTPUT_WIRE_VERSION },
    )
    .unwrap();
    match read_msg_blocking(&mut s).unwrap() {
        Some(Msg::Job { .. }) => s,
        other => panic!("expected Job, got {other:?}"),
    }
}

/// A fake coordinator's side of the handshake: accepts one worker on
/// `listener`, checks its `Hello` and hands it `j`.
fn fake_coordinator_accept(listener: &TcpListener, j: &CampaignJob) -> TcpStream {
    let (mut s, _peer) = listener.accept().expect("worker connects");
    match read_msg_blocking(&mut s).unwrap() {
        Some(Msg::Hello { proto, output_wire }) => {
            assert_eq!((proto, output_wire), (PROTO_VERSION, OUTPUT_WIRE_VERSION));
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    write_msg_blocking(&mut s, &Msg::Job { job: Box::new(j.clone()) }).unwrap();
    s
}

/// Sends `Ready` and insists on a `Lease`, retrying through `Wait`s.
fn lease_slice(s: &mut TcpStream) -> u64 {
    loop {
        write_msg_blocking(s, &Msg::Ready).unwrap();
        match read_msg_blocking(s).unwrap() {
            Some(Msg::Lease { slice }) => return slice,
            Some(Msg::Wait { poll_ms }) => {
                std::thread::sleep(Duration::from_millis(poll_ms.clamp(1, 100)));
            }
            other => panic!("expected a grant, got {other:?}"),
        }
    }
}

/// Asserts the coordinator has hung up on `s`: EOF or a reset, promptly.
fn assert_hung_up(s: &mut TcpStream, who: &str) {
    s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    match read_msg_blocking(s) {
        Ok(None) => {}
        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
        other => panic!("{who}: expected EOF or reset within a second, got {other:?}"),
    }
}

fn assert_distributed_equivalent(name: &str) {
    let j = job(name);
    let seq = sequential(&j);
    assert!(seq.measure_legs > 0, "{name}: the reference run must move traffic");
    for workers in [1usize, 2, 4] {
        let (rep, worker_reports) = distributed(&j, workers);
        assert_eq!(
            rep.output.fingerprint(),
            seq.fingerprint(),
            "{name}: {workers} worker(s) diverged from the sequential run"
        );
        assert_eq!(
            rendered(&j.spec, &rep.output),
            rendered(&j.spec, &seq),
            "{name}: rendered report differs at {workers} worker(s)"
        );
        assert_eq!(rep.slices, 4, "{name}: 40 min / 10 min slices");
        assert_eq!(rep.connections, workers as u64);
        // Conservation: every slice result delivered by some worker is
        // either the recorded copy or a counted duplicate.
        let delivered: u64 = worker_reports.iter().map(|w| w.slices_run).sum();
        assert_eq!(delivered, rep.slices as u64 + rep.duplicates, "{name}: slice conservation");
    }
}

#[test]
fn ron_narrow_distributed_equals_sequential() {
    assert_distributed_equivalent("ron-narrow");
}

#[test]
fn sparse_mesh_distributed_equals_sequential() {
    // Every worker process rebuilds the topology — and its seed-derived
    // sparse probe mesh — from the job's spec + master seed on its own
    // side of the wire; a derivation that drifted per-process would
    // diverge from the sequential bits instantly.
    let j = small_sparse_job();
    let seq = sequential(&j);
    assert!(seq.measure_legs > 0, "the reference run must move traffic");
    for workers in [1usize, 2] {
        let (rep, _) = distributed(&j, workers);
        assert_eq!(
            rep.output.fingerprint(),
            seq.fingerprint(),
            "sparse mesh: {workers} worker(s) diverged from the sequential run"
        );
        assert_eq!(rendered(&j.spec, &rep.output), rendered(&j.spec, &seq));
    }
}

#[test]
fn a_sparse_job_the_loader_accepts_can_be_distributed() {
    // `ScenarioSpec::validate` admits sparse meshes up to 1000 hosts. A
    // slice result used to be ~1.9 kB per *ordered host pair*, measured
    // or not — 77 MB here, which the worker's own `write_msg_blocking`
    // refused ("exceeds the 64 MiB cap"), so from ~185 hosts up such a
    // campaign could never finish. A result is now a row per measured
    // pair: 1 200 of the 40 000.
    let mut j = job("sparse-mesh");
    j.spec.name = "sparse-mesh-200".to_string();
    j.spec.topology =
        mpath::core::TopologySpec::SparseSynthetic { hosts: 200, edge_loss: 0.02, mesh_k: 6 };
    j.duration_us = SimDuration::from_secs(20).as_micros();
    j.slice_width_us = 0;
    j.validate().expect("a 200-host sparse job is a valid job");
    let (rep, workers) = distributed(&j, 1);
    assert_eq!(workers[0].slices_run, rep.slices as u64);
    let local = mpath::core::run_experiment(j.spec.topology(j.seed), j.config());
    assert!(local.measure_legs > 1_000, "the run must move traffic");
    assert_eq!(rep.output.fingerprint(), local.fingerprint());
    let frame = mpath::core::distrib::encode_msg(&Msg::Result {
        slice: 0,
        output: Box::new(j.run_slice_index(0)),
    });
    assert!(frame.len() < 1 << 20, "a slice result frame is {} bytes", frame.len());
}

#[test]
fn delta_dissemination_distributed_equals_sequential() {
    // Non-default dissemination travels inside the job's scenario spec,
    // so every worker process must rebuild the same mode — and the LSA
    // counters (outside the fingerprint) must merge identically too.
    let mut j = job("ron-narrow");
    j.spec.name = "delta-dissem".to_string();
    j.spec.dissemination = mpath::core::DisseminationSpec::Delta { max_age_probes: 8 };
    j.spec.validate().expect("dissemination variant must be a valid spec");
    let seq = sequential(&j);
    assert!(seq.net.lsa_bytes > 0, "dissemination must be accounted");
    for workers in [1usize, 2] {
        let (rep, _) = distributed(&j, workers);
        assert_eq!(
            rep.output.fingerprint(),
            seq.fingerprint(),
            "{workers} worker(s) diverged from the sequential run"
        );
        assert_eq!(rep.output.net.lsa_bytes, seq.net.lsa_bytes, "lsa_bytes diverged");
        assert_eq!(rep.output.net.lsa_entries, seq.net.lsa_entries);
        assert_eq!(rendered(&j.spec, &rep.output), rendered(&j.spec, &seq));
    }
}

#[test]
fn correlated_outages_distributed_equals_sequential() {
    // The scripted shared-risk schedule must compile identically in
    // every worker process, not just every worker thread.
    assert_distributed_equivalent("correlated-outages");
}

#[test]
fn pipelined_workers_match_sequential_bits() {
    // A worker holding several leases at once finishes slices out of
    // order and interleaves Result frames with fresh Readys; none of
    // that may reach the merged bytes. Two scenarios × jobs ∈ {1, 4},
    // every fleet pinned to the sequential fingerprint.
    for name in ["ron-narrow", "correlated-outages"] {
        let j = job(name);
        let seq = sequential(&j);
        for jobs in [1usize, 4] {
            let (coordinator, addr) = spawn_coordinator(&j);
            let opts = WorkerOptions { jobs, ..fast_worker() };
            let worker =
                std::thread::spawn(move || run_worker(addr, opts).expect("worker runs"));
            let rep = coordinator.join().expect("coordinator thread");
            let wr = worker.join().expect("worker thread");
            assert_eq!(
                rep.output.fingerprint(),
                seq.fingerprint(),
                "{name}: a --jobs {jobs} worker diverged from the sequential run"
            );
            assert_eq!(rendered(&j.spec, &rep.output), rendered(&j.spec, &seq));
            assert_eq!(wr.slices_run, rep.slices as u64 + rep.duplicates, "{name}: conservation");
            // The streaming merge folds every result and parks at most
            // the merge window: twice the most leases outstanding at
            // once, and a `--jobs j` worker holds j + 1 (it asks for the
            // next before it ships a result).
            let window = (2 * (jobs + 1)).min(rep.slices);
            assert!(
                rep.peak_buffered >= 1 && rep.peak_buffered <= window,
                "{name}: peak_buffered {} outside 1..={window}",
                rep.peak_buffered,
            );
        }
    }
}

#[test]
fn pipelined_worker_heartbeats_name_every_outstanding_lease() {
    // A fake coordinator leases two slices to one --jobs 2 worker and
    // listens: each quiet heartbeat interval the worker must re-arm
    // *both* leases — one Heartbeat frame per outstanding slice — or a
    // multi-slice worker would look dead on all but one of its slices.
    let j = job("ron-narrow");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { heartbeat: Duration::from_millis(10), jobs: 2 })
            .expect("worker runs")
    });
    let mut s = fake_coordinator_accept(&listener, &j);
    // Heartbeats arrive in runs between the worker's other frames; any
    // run naming both slices proves one timeout tick re-armed them all.
    let mut granted = 0u64;
    let mut results = 0usize;
    let mut batch: Vec<u64> = Vec::new();
    let mut batches: Vec<Vec<u64>> = Vec::new();
    let flush = |batch: &mut Vec<u64>, batches: &mut Vec<Vec<u64>>| {
        if !batch.is_empty() {
            batches.push(std::mem::take(batch));
        }
    };
    loop {
        match read_msg_blocking(&mut s).unwrap() {
            Some(Msg::Ready) => {
                flush(&mut batch, &mut batches);
                if granted < 2 {
                    write_msg_blocking(&mut s, &Msg::Lease { slice: granted }).unwrap();
                    granted += 1;
                } else if results < 2 {
                    write_msg_blocking(&mut s, &Msg::Wait { poll_ms: 20 }).unwrap();
                } else {
                    write_msg_blocking(&mut s, &Msg::Done).unwrap();
                    break;
                }
            }
            Some(Msg::Heartbeat { slice }) => batch.push(slice),
            Some(Msg::Result { .. }) => {
                flush(&mut batch, &mut batches);
                results += 1;
            }
            other => panic!("unexpected frame from worker: {other:?}"),
        }
    }
    let wr = worker.join().expect("worker thread");
    assert_eq!(wr.slices_run, 2);
    assert!(!wr.coordinator_closed);
    assert!(
        batches.iter().any(|b| b.contains(&0) && b.contains(&1)),
        "no heartbeat run named both outstanding slices; runs seen: {batches:?}"
    );
}

#[test]
fn heartbeats_run_on_a_deadline_while_other_results_keep_arriving() {
    // A --jobs 2 worker holds one long slice and one short one, and the
    // fake coordinator keeps re-leasing the short one: results then
    // arrive far more often than the heartbeat interval. The long
    // slice's lease must still be re-armed every interval — a worker
    // that heartbeats only when nothing else happens would let it
    // expire however honest it is.
    let heartbeat = Duration::from_millis(100);
    let spec = ScenarioRegistry::builtin().get("ron-narrow").expect("builtin scenario").clone();
    // Slice 0 is an hour of simulation, slice 1 (the remainder) a
    // second.
    let j = CampaignJob {
        spec,
        seed: 42,
        duration_us: SimDuration::from_secs(3_601).as_micros(),
        slice_width_us: SimDuration::from_secs(3_600).as_micros(),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { heartbeat, jobs: 2 }).expect("worker runs")
    });
    let mut s = fake_coordinator_accept(&listener, &j);
    let (long, short) = (0u64, 1u64);
    let mut granted_long = false;
    let mut long_done = false;
    let mut short_results = 0u64;
    // When the long slice's lease was last (re-)armed, and the longest
    // it went without.
    let mut armed = std::time::Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        match read_msg_blocking(&mut s).unwrap() {
            Some(Msg::Ready) => {
                if !granted_long {
                    write_msg_blocking(&mut s, &Msg::Lease { slice: long }).unwrap();
                    armed = std::time::Instant::now();
                    granted_long = true;
                } else if !long_done {
                    write_msg_blocking(&mut s, &Msg::Lease { slice: short }).unwrap();
                } else {
                    write_msg_blocking(&mut s, &Msg::Done).unwrap();
                    break;
                }
            }
            Some(Msg::Heartbeat { slice }) if slice == long => {
                longest = longest.max(armed.elapsed());
                armed = std::time::Instant::now();
            }
            Some(Msg::Heartbeat { .. }) => {}
            Some(Msg::Result { slice, .. }) if slice == long => {
                longest = longest.max(armed.elapsed());
                long_done = true;
            }
            Some(Msg::Result { .. }) => short_results += 1,
            other => panic!("unexpected frame from worker: {other:?}"),
        }
    }
    let wr = worker.join().expect("worker thread");
    assert!(!wr.coordinator_closed);
    assert!(short_results > 0, "the short slice must keep finishing beside the long one");
    assert_eq!(wr.slices_run, short_results + 1);
    assert!(
        longest < 4 * heartbeat,
        "the long slice went {longest:?} without a heartbeat while {short_results} short \
         results arrived (heartbeat every {heartbeat:?})"
    );
}

#[test]
fn a_finished_slice_asks_for_its_next_lease_before_shipping_its_result() {
    // A worker whose slice finished asks for the next lease first, so
    // its core is busy again before the result crosses the wire. The
    // grammar still holds: the coordinator reads frames in order.
    let j = job("ron-narrow");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { heartbeat: Duration::from_secs(60), jobs: 1 })
            .expect("worker runs")
    });
    let mut s = fake_coordinator_accept(&listener, &j);
    assert!(matches!(read_msg_blocking(&mut s).unwrap(), Some(Msg::Ready)));
    write_msg_blocking(&mut s, &Msg::Lease { slice: 0 }).unwrap();
    match read_msg_blocking(&mut s).unwrap() {
        Some(Msg::Ready) => {}
        other => panic!("a finished slice must ask for its next lease first, got {other:?}"),
    }
    // A `Wait` with a frame unsent must not park it for `poll_ms`: that
    // frame may be the one that finishes the campaign.
    write_msg_blocking(&mut s, &Msg::Wait { poll_ms: 10_000 }).unwrap();
    let asked = std::time::Instant::now();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    match read_msg_blocking(&mut s).unwrap() {
        Some(Msg::Result { slice: 0, output }) => {
            assert_eq!(output.fingerprint(), j.run_slice_index(0).fingerprint());
        }
        other => panic!("expected Result{{0}} right after the Wait, got {other:?}"),
    }
    assert!(matches!(read_msg_blocking(&mut s).unwrap(), Some(Msg::Ready)));
    assert!(asked.elapsed() < Duration::from_secs(2), "the worker slept on the Wait");
    write_msg_blocking(&mut s, &Msg::Done).unwrap();
    let wr = worker.join().expect("worker thread");
    assert_eq!(wr.slices_run, 1);
    assert!(!wr.coordinator_closed);
}

#[test]
fn a_long_poll_hint_does_not_hold_up_the_campaign_end() {
    // Every `Ready` a pipelined worker sends ahead of its last results
    // is answered `Wait` with the full 10 s hint (30 s leases never come
    // close to expiring). The worker must ship those results at once,
    // not nap on the hint with them in hand.
    let j = job("ron-narrow");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let serve_job = j.clone();
    let opts = ServeOptions { lease_timeout: Duration::from_secs(30), poll_ms: 10_000 };
    let started = std::time::Instant::now();
    let coordinator = std::thread::spawn(move || {
        serve_campaign(listener, serve_job, opts).expect("campaign serves")
    });
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { jobs: 2, ..fast_worker() }).expect("worker runs")
    });
    let rep = coordinator.join().expect("coordinator thread");
    let wr = worker.join().expect("worker thread");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "the campaign took {took:?}");
    assert!(!wr.coordinator_closed, "the worker must hear Done");
    assert_eq!(wr.slices_run, rep.slices as u64);
    let local = mpath::core::run_experiment(j.spec.topology(j.seed), j.config());
    assert_eq!(rep.output.fingerprint(), local.fingerprint());
}

#[test]
fn stalled_leases_are_re_issued_only_after_the_configured_timeout() {
    // The lease timeout is configuration (repro --lease-secs), not a
    // constant: before it elapses a stalled worker's slices must *not*
    // move, after it they must. The staller takes every lease in the
    // plan so the helper's grants are unambiguous.
    let j = job("ron-narrow");
    let timeout = Duration::from_millis(400);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let serve_job = j.clone();
    let opts = ServeOptions { lease_timeout: timeout, poll_ms: 50 };
    let coordinator = std::thread::spawn(move || {
        serve_campaign(listener, serve_job, opts).expect("campaign serves")
    });

    let mut staller = fake_handshake(addr);
    for expect in 0..4u64 {
        assert_eq!(lease_slice(&mut staller), expect, "plan leases in index order");
    }
    // ... and then silence: no heartbeats, no results, connection open.

    let mut helper = fake_handshake(addr);
    write_msg_blocking(&mut helper, &Msg::Ready).unwrap();
    match read_msg_blocking(&mut helper).unwrap() {
        Some(Msg::Wait { .. }) => {} // live leases stay put before the timeout
        other => panic!("expected Wait while every lease is live, got {other:?}"),
    }
    std::thread::sleep(timeout + Duration::from_millis(200));
    write_msg_blocking(&mut helper, &Msg::Ready).unwrap();
    match read_msg_blocking(&mut helper).unwrap() {
        // All four leases share a deadline; the scan keeps the first.
        Some(Msg::Lease { slice }) => assert_eq!(slice, 0, "most-overdue lease re-issues first"),
        other => panic!("expected the timed-out lease back, got {other:?}"),
    }
    // Results are slice-indexed and idempotent, so the helper can
    // finish the whole campaign without leasing the other three.
    for k in 0..4u64 {
        let output = Box::new(j.run_slice_index(k as usize));
        write_msg_blocking(&mut helper, &Msg::Result { slice: k, output }).unwrap();
    }
    write_msg_blocking(&mut helper, &Msg::Ready).unwrap();
    match read_msg_blocking(&mut helper).unwrap() {
        Some(Msg::Done) => {}
        other => panic!("expected Done after the last result, got {other:?}"),
    }
    drop(staller);
    let rep = coordinator.join().expect("coordinator thread");
    assert_eq!(rep.releases, 1, "exactly one lease expired (the probe re-lease of slice 0)");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn the_worker_whose_result_completes_the_campaign_still_hears_done() {
    // The last result wakes the accept loop, which hangs up on every
    // connection's read half. The connection that recorded that result
    // must still answer the `Ready` its worker sends next.
    let j = job("ron-narrow");
    let outputs: Vec<_> = (0..4).map(|k| j.run_slice_index(k)).collect();
    let (coordinator, addr) = spawn_coordinator(&j);
    let mut finisher = fake_handshake(addr);
    for expect in 0..4u64 {
        assert_eq!(lease_slice(&mut finisher), expect, "plan leases in index order");
    }
    for (k, output) in outputs.into_iter().enumerate() {
        let msg = Msg::Result { slice: k as u64, output: Box::new(output) };
        write_msg_blocking(&mut finisher, &msg).unwrap();
    }
    // Long enough for the accept loop to wake and shut connections
    // down, well inside `fast_serve`'s 250 ms patience.
    std::thread::sleep(Duration::from_millis(100));
    write_msg_blocking(&mut finisher, &Msg::Ready).unwrap();
    match read_msg_blocking(&mut finisher) {
        Ok(Some(Msg::Done)) => {}
        other => panic!("expected Done after the last result, got {other:?}"),
    }
    let rep = coordinator.join().expect("coordinator thread");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn killed_worker_and_duplicate_result_still_merge_to_sequential_bits() {
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);

    // Fault 1 — killed mid-slice: take a lease, then vanish. The
    // disconnect must zero the lease so the slice is re-issued at once.
    {
        let mut victim = fake_handshake(addr);
        let slice = lease_slice(&mut victim);
        assert_eq!(slice, 0, "an empty plan leases slice 0 first");
        // Dropping the stream here is the kill: no result, no goodbye.
    }

    // Fault 2 — duplicated result: an overeager worker delivers slice 1
    // twice. Slice k is a pure function of the job, so both copies are
    // byte-identical and the coordinator must keep exactly one.
    {
        let mut eager = fake_handshake(addr);
        let slice = lease_slice(&mut eager);
        let first = j.run_slice_index(slice as usize);
        let second = j.run_slice_index(slice as usize);
        write_msg_blocking(&mut eager, &Msg::Result { slice, output: Box::new(first) }).unwrap();
        write_msg_blocking(&mut eager, &Msg::Result { slice, output: Box::new(second) }).unwrap();
    }

    // Honest workers finish whatever is left, including the re-leased
    // casualty of fault 1.
    let workers = spawn_workers(addr, 2);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    assert!(rep.releases >= 1, "the killed worker's lease must be re-issued");
    assert_eq!(rep.duplicates, 1, "the duplicated slice must be counted, not merged");
    assert_eq!(
        rep.output.fingerprint(),
        sequential(&j).fingerprint(),
        "faults must never leak into the merged bits"
    );
}

/// The small `sparse-mesh` variant the equivalence tests run: 24 hosts,
/// 4 probe neighbours each.
fn small_sparse_job() -> CampaignJob {
    let mut j = job("sparse-mesh");
    j.spec.name = "sparse-mesh-small".to_string();
    j.spec.topology =
        mpath::core::TopologySpec::SparseSynthetic { hosts: 24, edge_loss: 0.02, mesh_k: 4 };
    j.spec.validate().expect("small sparse variant must be a valid spec");
    j
}

/// A way to answer a lease of `job`'s slice with something the job does
/// not produce.
type Lie = fn(&CampaignJob, usize) -> ExperimentOutput;

#[test]
fn lying_worker_is_dropped_and_the_campaign_still_merges_to_sequential_bits() {
    // A worker that ran the right campaign (digest matches) but ships a
    // result of the wrong *shape* must cost the coordinator one
    // connection, not its state lock: the merge asserts on such a
    // result, and a panic under the lock would take every other
    // connection down with it. Nor may it be merged: accumulators rowed
    // by another probe mesh have the right *size*, and every one of
    // their counters would land on the wrong pair.
    let ron: [(&str, Lie); 2] = [
        // Method names truncated.
        ("names", |j, slice| {
            let mut out = j.run_slice_index(slice);
            out.names.pop();
            out
        }),
        // A 20-minute window accumulator one method short.
        ("win20", |j, slice| {
            let mut out = j.run_slice_index(slice);
            out.win20 = analysis::WindowAccum::new(
                out.n,
                out.names.len() - 1,
                SimDuration::from_mins(20),
            );
            out
        }),
    ];
    let sparse: [(&str, Lie); 2] = [
        // The clique's accumulators for a job that declares a mesh.
        ("loss", |j, slice| {
            let mut out = j.run_slice_index(slice);
            out.loss = analysis::LossAccum::new(out.n, out.names.len());
            out
        }),
        // The mesh another seed derives: same spec, names, host count
        // and row count, other pairs.
        ("loss", |j, slice| {
            let mut other = j.clone();
            other.seed += 1;
            other.run_slice_index(slice)
        }),
    ];
    for (j, lies) in [(job("ron-narrow"), ron), (small_sparse_job(), sparse)] {
        let mesh = j.spec.probe_mesh(j.seed);
        let pairs = analysis::PairIndex::new(j.spec.topology.hosts(), mesh.as_deref());
        let (coordinator, addr) = spawn_coordinator(&j);
        for (field, lie) in lies {
            let mut liar = fake_handshake(addr);
            let slice = lease_slice(&mut liar);
            let output = Box::new(lie(&j, slice as usize));
            // What the coordinator will say of it (to its own stderr).
            let refusal = output.shape_mismatch(&j.config(), &pairs).expect("a lie");
            assert!(refusal.starts_with(&format!("`{field}` is")), "got: {refusal}");
            write_msg_blocking(&mut liar, &Msg::Result { slice, output }).unwrap();
            // The coordinator hangs up on a protocol error.
            assert!(
                !matches!(read_msg_blocking(&mut liar), Ok(Some(_))),
                "a wrong-shaped result must end the connection"
            );
        }
        let workers = spawn_workers(addr, 1);
        let rep = coordinator.join().expect("coordinator thread");
        for w in workers {
            w.join().expect("worker thread");
        }
        assert!(rep.releases >= 1, "the liars' leases must be re-issued");
        assert_eq!(rep.duplicates, 0, "nothing a liar sent was recorded");
        assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
    }
}

#[test]
fn counts_that_would_overflow_the_merge_are_refused() {
    // Two shape-correct results whose `net.sent` counts are each just
    // over half of `u64::MAX`: their sum overflows. The coordinator must
    // refuse them as a protocol error, before the merge adds them up
    // under the book's lock, and the campaign must still merge to the
    // sequential bits.
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);
    for _ in 0..2 {
        let mut liar = fake_handshake(addr);
        let slice = lease_slice(&mut liar);
        let mut output = Box::new(j.run_slice_index(slice as usize));
        output.net.sent = u64::MAX / 2 + 1;
        // What the coordinator will name in its refusal.
        assert_eq!(output.max_count(), ("net", u64::MAX / 2 + 1));
        write_msg_blocking(&mut liar, &Msg::Result { slice, output }).unwrap();
        // An accepted result would be followed by an answer to this;
        // a refused one ended the connection.
        let _ = write_msg_blocking(&mut liar, &Msg::Ready);
        assert!(
            !matches!(read_msg_blocking(&mut liar), Ok(Some(_))),
            "an over-limit result must end the connection"
        );
    }
    let workers = spawn_workers(addr, 1);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    assert!(rep.releases >= 2, "both liars' leases must be re-issued");
    assert_eq!(rep.duplicates, 0, "nothing a liar sent was recorded");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn stalled_worker_times_out_and_the_slice_is_re_leased() {
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);

    // The staller takes a lease and then simply stops: no heartbeats,
    // no result, but the connection stays open — only the lease
    // timeout can free the slice.
    let mut staller = fake_handshake(addr);
    let stalled_slice = lease_slice(&mut staller);

    let workers = spawn_workers(addr, 1);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    drop(staller);
    assert!(rep.releases >= 1, "slice {stalled_slice} must be re-leased after the timeout");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn a_slow_slice_that_keeps_heartbeating_holds_the_others_to_the_merge_window() {
    // A fake worker leases slice 0 and heartbeats it, alive but slow,
    // while a real worker runs the rest. At most three leases are out at
    // once (the fake's, and a `--jobs 1` worker's two: it asks before it
    // ships), so the window is six: the real worker gets slices 1–5, is
    // told to wait rather than handed slice 0 again, and the merge parks
    // at most six results instead of eleven.
    let mut j = job("ron-narrow");
    j.duration_us = SimDuration::from_mins(12).as_micros();
    j.slice_width_us = SimDuration::from_mins(1).as_micros();
    let slice0 = Box::new(j.run_slice_index(0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let serve_job = j.clone();
    let opts = ServeOptions { lease_timeout: Duration::from_secs(2), poll_ms: 50 };
    let coordinator = std::thread::spawn(move || {
        serve_campaign(listener, serve_job, opts).expect("campaign serves")
    });
    let mut slow = fake_handshake(addr);
    assert_eq!(lease_slice(&mut slow), 0);
    let workers = spawn_workers(addr, 1);
    for _ in 0..15 {
        std::thread::sleep(Duration::from_millis(100));
        write_msg_blocking(&mut slow, &Msg::Heartbeat { slice: 0 }).unwrap();
    }
    write_msg_blocking(&mut slow, &Msg::Result { slice: 0, output: slice0 }).unwrap();
    let rep = coordinator.join().expect("coordinator thread");
    drop(slow);
    let wr = workers.into_iter().map(|w| w.join().expect("worker thread")).next().unwrap();
    assert_eq!((rep.slices, wr.slices_run), (12, 11));
    assert_eq!((rep.releases, rep.duplicates), (0, 0), "slice 0 was never leased twice");
    assert!(rep.peak_buffered <= 6, "parked {} results behind a window of 6", rep.peak_buffered);
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn version_skewed_worker_is_denied_without_harming_the_campaign() {
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);

    let mut skewed = TcpStream::connect(addr).expect("connect");
    write_msg_blocking(
        &mut skewed,
        &Msg::Hello { proto: PROTO_VERSION + 1, output_wire: OUTPUT_WIRE_VERSION },
    )
    .unwrap();
    match read_msg_blocking(&mut skewed).unwrap() {
        Some(Msg::Deny { reason }) => {
            assert!(reason.contains("version mismatch"), "unhelpful denial: {reason}");
        }
        other => panic!("expected Deny, got {other:?}"),
    }
    drop(skewed);

    let workers = spawn_workers(addr, 1);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn serve_campaign_closes_its_listener_and_connections_on_return() {
    // The blocking coordinator has no runtime whose drop closes sockets
    // for it: returning must itself hang up on a connected bystander
    // (idle, handshaken, no lease — its thread sits in `read`) and stop
    // listening.
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);
    let mut bystander = fake_handshake(addr);
    let workers = spawn_workers(addr, 1);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_hung_up(&mut bystander, "bystander");
    let refused = TcpStream::connect(addr).expect_err("the listener must be closed");
    assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    assert_eq!(rep.connections, 2, "the wake-up that ends the accept loop is not a worker");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}

#[test]
fn pipelined_worker_reads_a_hang_up_mid_compute_as_campaign_over() {
    // A fake coordinator leases two slices to a --jobs 2 worker, waits
    // for the heartbeat that proves both are computing, and hangs up.
    let j = job("ron-narrow");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { heartbeat: Duration::from_millis(10), jobs: 2 })
    });
    let mut s = fake_coordinator_accept(&listener, &j);
    for slice in 0..2u64 {
        assert!(matches!(read_msg_blocking(&mut s).unwrap(), Some(Msg::Ready)));
        write_msg_blocking(&mut s, &Msg::Lease { slice }).unwrap();
    }
    assert!(matches!(read_msg_blocking(&mut s).unwrap(), Some(Msg::Heartbeat { .. })));
    drop(s);
    drop(listener);
    let wr = worker.join().expect("worker thread").expect("a hang-up after handshake is not an error");
    assert!(wr.coordinator_closed);
    assert!(wr.slices_run <= 2);
}

#[test]
fn pre_handshake_abusers_cost_a_connection_not_the_campaign() {
    let j = job("ron-narrow");
    let (coordinator, addr) = spawn_coordinator(&j);

    // Announces a body at the post-handshake frame cap (64 MiB) before
    // any Hello: refused on the prefix, nothing allocated or awaited.
    let mut greedy = TcpStream::connect(addr).expect("connect");
    greedy.write_all(&(64u32 << 20).to_be_bytes()).unwrap();
    assert_hung_up(&mut greedy, "oversized first frame");

    // Connects and says nothing: dropped once the handshake has been
    // outstanding for the lease timeout (250 ms here).
    let mut mute = TcpStream::connect(addr).expect("connect");
    assert_hung_up(&mut mute, "silent peer");

    let workers = spawn_workers(addr, 1);
    let rep = coordinator.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(rep.connections, 3, "both abusers and the worker are counted");
    assert_eq!(rep.releases, 0, "a peer that never handshook never held a lease");
    assert_eq!(rep.output.fingerprint(), sequential(&j).fingerprint());
}
