//! The three workloads: their shapes, the closed-loop client, and the
//! correctness checks every run makes.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use seldel_chain::{
    prove_deleted, prove_live, verify_proof, BlockHeader, BlockNumber, DeleteRequest, Entry,
    EntryId, EntryNumber, EntryProof, Expiry, HeaderChain, Timestamp,
};
use seldel_codec::{DataRecord, Value};
use seldel_core::{ChainConfig, LedgerEvent, RetentionPolicy};
use seldel_crypto::SigningKey;
use seldel_sim::ZipfSampler;

use crate::pipeline::Pipeline;
use crate::trace::Tracer;

/// Authors writing to the chain, drawn by Zipf.
pub const AUTHORS: usize = 64;
/// Zipf skew of the author distribution.
pub const ZIPF_S: f64 = 1.05;
/// Sequence length l: every l-th block is a summary block Σ.
pub const SEQUENCE_LENGTH: u64 = 10;
/// Random payload bytes per record (the encoded record is about 220 B).
pub const BODY_BYTES: usize = 160;
/// Entries per block in the erase workload's initial population.
const POPULATION_ENTRIES: usize = 16;
/// The largest share the live-record count may drift by over the timed
/// phase before the run is reported incorrect.
pub const STATIONARITY_BOUND: f64 = 0.10;

/// What an op of the schedule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Submit, seal, commit and replicate one block.
    Write,
    /// Audit a batch of uniformly drawn live records: read half of them
    /// back, prove the other half live and verify the proofs.
    ReadProve,
    /// Prove a uniformly drawn executed erasure, verify the proof.
    ProveDeleted,
}

/// How a deletion request picks its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A uniformly drawn live entry of a Zipf-drawn author.
    Owned,
    /// A uniformly drawn live entry still in its own block inside the
    /// oldest live sequence, so it is erased at the next merge.
    Oldest,
}

/// How many erasure requests a write op carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Erasures {
    PerOp(usize),
    /// One per data entry of the op, so inserts balance erasures.
    OnePerInsert,
}

/// Everything that defines a workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    /// l_max: prune once the live chain exceeds this many blocks.
    pub l_max: u64,
    /// Data entries expire this many blocks after the block they enter.
    pub ttl_blocks: Option<u64>,
    /// Data entries per write op, drawn uniformly. Varying the batch
    /// keeps the latency distribution free of narrow modes, so its median
    /// moves smoothly when the host's speed drifts.
    pub data_per_op: RangeInclusive<usize>,
    pub erasures: Erasures,
    pub target: Target,
    /// Records one read op audits, drawn uniformly (audit).
    pub reads_per_op: RangeInclusive<usize>,
    /// Data-only blocks written before the warm-up ops (erase).
    pub population_blocks: u64,
    /// Write ops run during set-up to reach steady state.
    pub warmup_ops: u64,
    /// Hot-cache capacity while building.
    pub cache: usize,
    /// When set, the leader is reopened with this hot-cache capacity
    /// after building.
    pub reopen_cache: Option<usize>,
    /// The repeating op schedule of the timed phase.
    pub schedule: Vec<Slot>,
    /// Ops per tracing window; a traced run records layer calls in every
    /// other window and compares with the windows in between.
    pub trace_window: u64,
}

impl Shape {
    /// The named workload.
    pub fn named(name: &str) -> Option<Shape> {
        match name {
            // The write path in steady state: every record is carried into
            // a Σ once and dropped at the merge after it expires, so the
            // live set stays flat. One owner erasure per op keeps the
            // erasure metrics defined on this workload too.
            "ingest" => Some(Shape {
                name: "ingest",
                l_max: 128,
                ttl_blocks: Some(192),
                data_per_op: 8..=24,
                erasures: Erasures::PerOp(1),
                target: Target::Owned,
                reads_per_op: 0..=0,
                population_blocks: 0,
                warmup_ops: 320,
                cache: 1024,
                reopen_cache: None,
                schedule: vec![Slot::Write],
                trace_window: SEQUENCE_LENGTH - 1,
            }),
            // Owner erasure: inserts balance erasures, so the live set
            // stays flat while every Σ merge drops records.
            "erase" => Some(Shape {
                name: "erase",
                l_max: 128,
                ttl_blocks: None,
                data_per_op: 4..=12,
                erasures: Erasures::OnePerInsert,
                target: Target::Owned,
                reads_per_op: 0..=0,
                population_blocks: 128,
                warmup_ops: 200,
                cache: 1024,
                reopen_cache: None,
                schedule: vec![Slot::Write],
                trace_window: SEQUENCE_LENGTH - 1,
            }),
            // Reads over a live window 8x the hot cache: paging, the
            // index, proofs and cold Σ walks. Write ops erase from the
            // oldest sequence and records expire, so the live set is flat.
            "audit" => {
                let mut schedule = vec![Slot::ReadProve; 50];
                schedule[0] = Slot::Write;
                schedule[25] = Slot::Write;
                schedule[12] = Slot::ProveDeleted;
                schedule[37] = Slot::ProveDeleted;
                Some(Shape {
                    name: "audit",
                    l_max: 384,
                    ttl_blocks: Some(576),
                    data_per_op: 3..=3,
                    erasures: Erasures::PerOp(2),
                    target: Target::Oldest,
                    reads_per_op: 4..=12,
                    population_blocks: 0,
                    warmup_ops: 840,
                    cache: 1024,
                    reopen_cache: Some(48),
                    schedule,
                    trace_window: 50,
                })
            }
            _ => None,
        }
    }

    pub fn config(&self) -> ChainConfig {
        ChainConfig {
            sequence_length: SEQUENCE_LENGTH,
            retention: RetentionPolicy::bounded(self.l_max),
            chain_note: format!("perfbench {}", self.name),
            ..ChainConfig::default()
        }
    }
}

/// Which part of a run an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Timed,
    /// After the timed phase: the schedule goes on without new erasure
    /// requests until every earlier one has executed.
    Drain,
}

/// A uniformly sampleable set of entry ids with O(1) removal.
#[derive(Debug, Default)]
struct IdPool {
    ids: Vec<EntryId>,
    pos: HashMap<EntryId, usize>,
}

impl IdPool {
    fn insert(&mut self, id: EntryId) {
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
    }

    fn remove(&mut self, id: EntryId) -> bool {
        let Some(i) = self.pos.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(i);
        if let Some(moved) = self.ids.get(i) {
            self.pos.insert(*moved, i);
        }
        true
    }

    fn sample(&self, rng: &mut StdRng) -> Option<EntryId> {
        (!self.ids.is_empty()).then(|| self.ids[rng.random_range(0..self.ids.len())])
    }
}

/// A live record as the client submitted it.
#[derive(Debug)]
struct LiveRecord {
    author: usize,
    record: DataRecord,
}

/// An erasure request waiting for its `DeletionExecuted`.
#[derive(Debug, Clone, Copy)]
struct PendingErase {
    start_ms: f64,
    block_seq: u64,
    timed: bool,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub slot: Slot,
    pub sigma: bool,
    pub ms: f64,
    pub traced: bool,
}

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpSample>,
    /// (latency ms, payload blocks) of erasures requested in the timed
    /// phase.
    pub erasures: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// (live records, live blocks, tombstones in the newest Σ) at the
    /// start and at the end of the timed phase.
    pub live_start: (u64, u64, u64),
    pub live_end: (u64, u64, u64),
    pub disk_bytes: u64,
    pub live_bytes: u64,
    pub user_bytes: u64,
    pub timed_user_bytes: u64,
    pub write_chars: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tail_fsyncs: u64,
    pub carried: Vec<f64>,
    pub retired: Vec<f64>,
    pub deletions_executed: u64,
    pub deletions_ineffective: u64,
    pub client_sign_s: f64,
    pub drain_ops: u64,
    pub record_bytes: f64,
    pub open_s: f64,
}

/// The closed-loop client driving one pipeline.
pub struct Runner {
    shape: Shape,
    pipeline: Pipeline,
    rng: StdRng,
    zipf: ZipfSampler,
    keys: Vec<SigningKey>,
    seq: u64,
    ts: u64,
    next_block: u64,
    payload_blocks: u64,
    clock_ms: f64,
    live: BTreeMap<EntryId, LiveRecord>,
    by_author: Vec<IdPool>,
    all_live: IdPool,
    pending: BTreeMap<EntryId, PendingErase>,
    executed: Vec<EntryId>,
    headers: VecDeque<BlockHeader>,
    header_chain: Option<HeaderChain>,
    verify_sample: Vec<Entry>,
    out: Outcome,
}

/// Builds a fresh pipeline under `dir` and brings it to steady state.
/// Signing happens here too, so its cost is part of set-up.
pub fn setup(shape: &Shape, seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Runner, String> {
    let config = shape.config();
    let pipeline = Pipeline::create(dir, &config, shape.cache).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (0..AUTHORS)
        .map(|_| {
            let mut seed = [0u8; 32];
            for chunk in seed.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            SigningKey::from_seed(seed)
        })
        .collect();
    let next_block = pipeline.leader.chain().tip().number().value() + 1;
    let mut runner = Runner {
        shape: shape.clone(),
        pipeline,
        rng,
        zipf: ZipfSampler::new(AUTHORS, ZIPF_S),
        keys,
        seq: 0,
        ts: 0,
        next_block,
        payload_blocks: 0,
        clock_ms: 0.0,
        live: BTreeMap::new(),
        by_author: (0..AUTHORS).map(|_| IdPool::default()).collect(),
        all_live: IdPool::default(),
        pending: BTreeMap::new(),
        executed: Vec::new(),
        headers: VecDeque::new(),
        header_chain: None,
        verify_sample: Vec::new(),
        out: Outcome::default(),
    };
    for _ in 0..shape.population_blocks {
        runner.write(POPULATION_ENTRIES, false, Phase::Setup, tracer)?;
    }
    for _ in 0..shape.warmup_ops {
        let data = runner.rng.random_range(shape.data_per_op.clone());
        runner.write(data, true, Phase::Setup, tracer)?;
    }
    if let Some(cache) = shape.reopen_cache {
        runner.pipeline = runner.pipeline.reopen_leader(cache).map_err(err)?;
    }
    if shape.schedule.contains(&Slot::ReadProve) {
        runner.headers = runner
            .pipeline
            .leader
            .chain()
            .iter()
            .map(|b| b.header().clone())
            .collect();
        runner.refresh_header_chain()?;
    }
    for entry in std::mem::take(&mut runner.verify_sample) {
        let ok = tracer.call("crypto.verify", || entry.verify()).is_ok();
        if !ok {
            runner.fail("set-up sample verifies");
        }
    }
    Ok(runner)
}

/// Live records, live blocks and the tombstones the newest Σ carries.
fn live_state(ledger: &crate::pipeline::Ledger) -> (u64, u64, u64) {
    let chain = ledger.chain();
    let tip = chain.tip().number().value();
    let newest_sigma = (tip + 1) / SEQUENCE_LENGTH * SEQUENCE_LENGTH - 1;
    let tombstones = chain
        .get(BlockNumber(newest_sigma))
        .map_or(0, |b| b.deletions().len() as u64);
    (chain.record_count(), chain.len(), tombstones)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Runner {
    fn fail(&mut self, what: &str) {
        self.out.failed += 1;
        if !self.out.checks.iter().any(|(name, _)| name == what) {
            self.out.checks.push((what.to_string(), false));
        }
    }

    fn record(&mut self, author: usize) -> DataRecord {
        let mut body = vec![0u8; BODY_BYTES];
        for chunk in body.chunks_mut(8) {
            let word = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        self.seq += 1;
        DataRecord::new("reading")
            .with("tenant", author as u64)
            .with("seq", self.seq)
            .with("body", Value::Bytes(body))
    }

    /// Picks and removes from the live set a target for an erasure
    /// request, returning it with its owner.
    fn pick_target(&mut self) -> Option<(EntryId, usize)> {
        let id = match self.shape.target {
            Target::Owned => {
                let mut found = None;
                for _ in 0..AUTHORS * 4 {
                    let author = self.zipf.sample(&mut self.rng);
                    if let Some(id) = self.by_author[author].sample(&mut self.rng) {
                        found = Some(id);
                        break;
                    }
                }
                found?
            }
            Target::Oldest => {
                let marker = self.pipeline.leader.chain().marker().value();
                let lo = EntryId::new(BlockNumber(marker), EntryNumber(0));
                let hi = EntryId::new(BlockNumber(marker + SEQUENCE_LENGTH - 1), EntryNumber(0));
                let candidates: Vec<EntryId> = self.live.range(lo..hi).map(|(id, _)| *id).collect();
                if candidates.is_empty() {
                    return None;
                }
                candidates[self.rng.random_range(0..candidates.len())]
            }
        };
        let author = self.forget(id)?.author;
        Some((id, author))
    }

    /// Removes `id` from the client's live set.
    fn forget(&mut self, id: EntryId) -> Option<LiveRecord> {
        let rec = self.live.remove(&id)?;
        self.by_author[rec.author].remove(id);
        self.all_live.remove(id);
        Some(rec)
    }

    /// One write op: sign outside the timed interval, then submit, seal,
    /// commit and replicate inside it.
    fn write(
        &mut self,
        data: usize,
        erase: bool,
        phase: Phase,
        tracer: &mut Tracer,
    ) -> Result<OpSample, String> {
        let block = self.next_block;
        let sign_t0 = Instant::now();
        let erasures = match self.shape.erasures {
            Erasures::PerOp(n) => n,
            Erasures::OnePerInsert => data,
        };
        let mut entries = Vec::with_capacity(data + erasures);
        let mut records = Vec::with_capacity(data);
        for _ in 0..data {
            let author = self.zipf.sample(&mut self.rng);
            let record = self.record(author);
            let expiry = self
                .shape
                .ttl_blocks
                .map(|ttl| Expiry::AtBlock(BlockNumber(block + ttl)));
            let key = &self.keys[author];
            let entry = tracer.time("crypto.sign", || {
                Entry::sign_data_with(key, record.clone(), expiry, Vec::new())
            });
            records.push((author, record));
            entries.push(entry);
        }
        let mut targets = Vec::new();
        if erase {
            for _ in 0..erasures {
                let Some((target, author)) = self.pick_target() else {
                    break;
                };
                let key = &self.keys[author];
                let entry = tracer.time("crypto.sign", || {
                    Entry::sign_delete(key, DeleteRequest::new(target, "owner erasure"))
                });
                targets.push(target);
                entries.push(entry);
            }
        }
        if phase == Phase::Setup && tracer.is_on() && self.verify_sample.len() < 256 {
            self.verify_sample.extend(entries.iter().take(4).cloned());
        }
        let signatures: Vec<[u8; 64]> = entries.iter().map(|e| e.signature().to_bytes()).collect();
        self.out.user_bytes += entries.iter().map(|e| e.byte_size() as u64).sum::<u64>();
        if phase != Phase::Setup {
            self.out.client_sign_s += sign_t0.elapsed().as_secs_f64();
        }

        self.ts += 10;
        let start_ms = self.clock_ms;
        let t0 = Instant::now();
        let result = self.pipeline.write_op(entries, Timestamp(self.ts), tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.clock_ms += ms;

        let sealed = match result {
            Ok(sealed) => sealed,
            Err(e) => {
                self.fail(&format!("write op fails: {e}"));
                return Err(format!("write op failed: {e}"));
            }
        };
        self.payload_blocks += 1;
        if sealed.number.value() != block {
            self.fail("sealed block number matches its prediction");
        }
        {
            let chain = self.pipeline.leader.chain();
            let got = chain.get(sealed.number);
            let matches = got.is_some_and(|b| {
                b.entries().len() == signatures.len()
                    && b.entries()
                        .iter()
                        .zip(&signatures)
                        .all(|(e, s)| e.signature().to_bytes() == *s)
            });
            if !matches {
                self.fail("predicted entry ids match the sealed block");
            }
        }
        for (i, (author, record)) in records.into_iter().enumerate() {
            let id = EntryId::new(sealed.number, EntryNumber(i as u32));
            self.live.insert(id, LiveRecord { author, record });
            self.by_author[author].insert(id);
            self.all_live.insert(id);
        }
        for target in targets {
            self.pending.insert(
                target,
                PendingErase {
                    start_ms,
                    block_seq: self.payload_blocks,
                    timed: phase == Phase::Timed,
                },
            );
        }
        self.next_block = sealed.number.value() + 1 + u64::from(sealed.sigma);
        self.after_write(sealed.number, sealed.sigma, phase)?;
        Ok(OpSample {
            slot: Slot::Write,
            sigma: sealed.sigma,
            ms,
            traced: tracer.is_on(),
        })
    }

    /// Client-side bookkeeping after a write op, outside the timed
    /// interval: events, replica agreement, the auditor's header chain.
    fn after_write(
        &mut self,
        number: BlockNumber,
        sigma: bool,
        phase: Phase,
    ) -> Result<(), String> {
        for event in self.pipeline.leader.drain_events() {
            match event {
                LedgerEvent::DeletionExecuted { target, .. } => {
                    if phase != Phase::Setup {
                        self.out.deletions_executed += 1;
                    }
                    match self.pending.remove(&target) {
                        Some(p) => {
                            if p.timed {
                                let blocks = (self.payload_blocks - p.block_seq + 1) as f64;
                                self.out.erasures.push((self.clock_ms - p.start_ms, blocks));
                            }
                            self.executed.push(target);
                        }
                        None => self.fail("every executed deletion was requested"),
                    }
                }
                LedgerEvent::RecordExpired { origin } => {
                    if self.pending.contains_key(&origin) {
                        self.fail("erasure targets are erased, not expired");
                    }
                    self.forget(origin);
                }
                LedgerEvent::DeletionIneffective { .. } => {
                    if phase != Phase::Setup {
                        self.out.deletions_ineffective += 1;
                    }
                    self.fail("every erasure request is effective");
                }
                LedgerEvent::SummaryCreated { records, .. } if phase == Phase::Timed => {
                    self.out.carried.push(records as f64);
                }
                LedgerEvent::SequencesRetired { from, to, .. } if phase == Phase::Timed => {
                    self.out
                        .retired
                        .push((to.value() - from.value() + 1) as f64);
                }
                _ => {}
            }
        }
        self.pipeline.replica.drain_events();
        if self.pipeline.leader.chain().tip_hash() != self.pipeline.replica.chain().tip_hash() {
            self.fail("leader and replica agree on every tip and Σ hash");
        }
        if self.header_chain.is_some() {
            let chain = self.pipeline.leader.chain();
            let last = number.value() + u64::from(sigma);
            let first_new = self.headers.back().map_or(0, |h| h.number.value() + 1);
            for n in first_new..=last {
                let header = chain.get(BlockNumber(n)).map(|b| b.header().clone());
                self.headers.extend(header);
            }
            let marker = chain.marker();
            while self.headers.front().is_some_and(|h| h.number < marker) {
                self.headers.pop_front();
            }
            self.refresh_header_chain()?;
        }
        Ok(())
    }

    fn refresh_header_chain(&mut self) -> Result<(), String> {
        let chain = HeaderChain::new(self.headers.iter().cloned().collect()).map_err(err)?;
        self.header_chain = Some(chain);
        Ok(())
    }

    /// Audits a batch of uniformly drawn live records: every other one is
    /// read back, the rest are proven live and the proofs verified against
    /// the auditor's header chain. Each record is looked up once, so the
    /// hot cache sees the uniform access pattern.
    fn read_prove(&mut self, tracer: &mut Tracer) -> OpSample {
        let batch = self.rng.random_range(self.shape.reads_per_op.clone());
        let ids: Vec<EntryId> = (0..batch)
            .map(|_| {
                self.all_live
                    .sample(&mut self.rng)
                    .expect("the live set is never empty")
            })
            .collect();
        let headers = self
            .header_chain
            .as_ref()
            .expect("audit keeps a header chain");
        let chain = self.pipeline.leader.chain();
        let (mut reads_ok, mut proofs_ok) = (true, true);
        let t0 = Instant::now();
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                let located = tracer.time("chain.locate", || chain.locate(id));
                let expected = self.live.get(&id).map(|r| &r.record);
                reads_ok &= located.as_ref().and_then(|l| l.data()) == expected;
                continue;
            }
            let proof = tracer.call("proof.prove_live", || prove_live(chain, id));
            proofs_ok &= match &proof {
                Ok(p) => {
                    p.is_live()
                        && tracer
                            .call("proof.verify", || verify_proof(p, id, headers))
                            .is_ok()
                }
                Err(_) => false,
            };
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !reads_ok {
            self.fail("reads return the submitted record");
        }
        if !proofs_ok {
            self.fail("every live proof verifies");
        }
        self.clock_ms += ms;
        OpSample {
            slot: Slot::ReadProve,
            sigma: false,
            ms,
            traced: tracer.is_on(),
        }
    }

    /// Proves a uniformly drawn executed erasure and verifies the proof.
    fn prove_erased(&mut self, tracer: &mut Tracer) -> OpSample {
        let id = self.executed[self.rng.random_range(0..self.executed.len())];
        let headers = self
            .header_chain
            .as_ref()
            .expect("audit keeps a header chain");
        let chain = self.pipeline.leader.chain();
        let t0 = Instant::now();
        let proof = tracer.call("proof.prove_deleted", || prove_deleted(chain, id));
        let verified = match &proof {
            Ok(p) => tracer
                .call("proof.verify", || verify_proof(p, id, headers))
                .is_ok(),
            Err(_) => false,
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let tombstone = matches!(proof, Ok(EntryProof::DeletionExecuted(_)));
        if !(verified && tombstone) {
            self.fail("every erasure proof verifies");
        }
        self.clock_ms += ms;
        OpSample {
            slot: Slot::ProveDeleted,
            sigma: false,
            ms,
            traced: tracer.is_on(),
        }
    }

    fn step(&mut self, index: u64, phase: Phase, tracer: &mut Tracer) -> Result<OpSample, String> {
        let schedule = &self.shape.schedule;
        match schedule[(index % schedule.len() as u64) as usize] {
            Slot::Write => {
                let data = self.rng.random_range(self.shape.data_per_op.clone());
                self.write(data, phase != Phase::Drain, phase, tracer)
            }
            Slot::ReadProve => Ok(self.read_prove(tracer)),
            Slot::ProveDeleted => Ok(self.prove_erased(tracer)),
        }
    }

    /// The timed phase, the drain, and the checks on the durable result.
    /// Runs until the ops' own time reaches `seconds`, or for exactly
    /// `ops` ops when given.
    pub fn run(
        mut self,
        seconds: f64,
        ops: Option<u64>,
        traced: bool,
        tracer: &mut Tracer,
    ) -> Result<Outcome, String> {
        self.out.live_start = live_state(&self.pipeline.leader);
        let chain = self.pipeline.leader.chain();
        let store = chain.store();
        let (hits0, misses0, fsyncs0) = (
            store.hot_cache_hits(),
            store.hot_cache_misses(),
            store.tail_fsyncs(),
        );
        let wchar0 = crate::report::write_chars();
        self.out.user_bytes = 0;

        let mut index = 0u64;
        let mut timed_ms = 0.0;
        loop {
            let done = match ops {
                Some(n) => index >= n,
                None => timed_ms >= seconds * 1e3,
            };
            if done {
                break;
            }
            tracer.set_on(traced && (index / self.shape.trace_window).is_multiple_of(2));
            let sample = self.step(index, Phase::Timed, tracer)?;
            timed_ms += sample.ms;
            self.out.ops.push(sample);
            index += 1;
        }
        tracer.set_on(false);
        self.out.attempted = index;
        self.out.timed_user_bytes = self.out.user_bytes;

        self.out.live_end = live_state(&self.pipeline.leader);
        let chain = self.pipeline.leader.chain();
        let store = chain.store();
        self.out.cache_hits = store.hot_cache_hits() - hits0;
        self.out.cache_misses = store.hot_cache_misses() - misses0;
        self.out.tail_fsyncs = store.tail_fsyncs() - fsyncs0;
        self.out.write_chars = crate::report::write_chars() - wchar0;

        // Drain: keep the schedule going, without new erasure requests,
        // until every request made so far has executed.
        let limit = 4 * (self.shape.l_max + SEQUENCE_LENGTH) * self.shape.schedule.len() as u64;
        let mut drained = 0;
        while !self.pending.is_empty() && drained < limit {
            self.step(index, Phase::Drain, tracer)?;
            index += 1;
            drained += 1;
        }
        self.out.drain_ops = drained;
        let unfinished = self.pending.len() as u64;
        if unfinished > 0 {
            self.out.failed += unfinished;
            self.out
                .checks
                .push(("every erasure request executes".to_string(), false));
        }

        let stats = self.pipeline.leader.stats();
        self.out.live_bytes = stats.live_bytes;
        self.out.disk_bytes = crate::report::dir_bytes(&self.pipeline.leader_dir);
        let records: Vec<f64> = self
            .live
            .values()
            .map(|r| r.record.byte_size() as f64)
            .collect();
        self.out.record_bytes = crate::report::median(&records);
        self.check_reopen()
    }

    /// Reopens the leader directory from scratch and checks that every
    /// acknowledged live entry is there and no erased one is.
    fn check_reopen(mut self) -> Result<Outcome, String> {
        let t0 = Instant::now();
        let pipeline = self.pipeline.reopen_leader(self.shape.cache).map_err(err)?;
        self.out.open_s = t0.elapsed().as_secs_f64();
        let live_ids: Vec<EntryId> = self.live.keys().copied().collect();
        let live_ok = pipeline.leader.audit_live(&live_ids).iter().all(|&f| f);
        let erased_ok = pipeline
            .leader
            .chain()
            .locate_many(&self.executed)
            .iter()
            .all(Option::is_none);
        let tips_ok = pipeline.leader.chain().tip_hash() == pipeline.replica.chain().tip_hash();
        for (name, ok) in [
            (
                "reopened leader holds every acknowledged live entry",
                live_ok,
            ),
            ("reopened leader holds no erased entry", erased_ok),
            ("reopened leader tip matches the replica", tips_ok),
        ] {
            if !ok {
                self.out.failed += 1;
            }
            self.out.checks.push((name.to_string(), ok));
        }
        Ok(self.out)
    }
}
