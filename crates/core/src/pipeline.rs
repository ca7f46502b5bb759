//! The staged execution pipeline behind every engine run.
//!
//! Every run of the engine is the same four stages:
//!
//! ```text
//!   decode ──► route ──► step ──► merge
//!   (trace     (shard     (one lane   (commutative
//!    source)    key)       per scheme) counter sums)
//! ```
//!
//! This module implements the stages exactly once, and [`run`] places
//! them by one rule. The public
//! [`BroadcastSimulator`](crate::broadcast::BroadcastSimulator) and the
//! [`Experiment`](crate::experiment::Experiment) harness only pass the
//! configuration through.
//!
//! * **The source kind picks the feed.** Sources with a borrowed-chunk
//!   view (`TraceSource::borrowed`, e.g. mmap-backed DTR1 files) lend
//!   their decode buffer straight to the step side through
//!   [`BorrowedFeed`]; every other source fills one recycled owned
//!   buffer through [`InlineFeed`]. Either way decode runs on the
//!   calling thread, between chunks.
//! * **`workers` picks the step side.** With one worker the route stage
//!   is the identity and every lane steps on the calling thread
//!   ([`drive_in_thread`]). With two or more, references are routed by
//!   [`ShardKey`] into per-shard bounded queues and one worker thread
//!   steps each shard ([`drive_sharded`]); the calling thread keeps
//!   decoding and routing while the workers step, so decode overlaps
//!   stepping without a thread of its own.
//!
//! ## Chunk leases
//!
//! The decode → step boundary is a lending one: each `ChunkFeed::next`
//! call returns a borrowed slice that stays valid until the next call.
//! The step side never owns chunk storage, so where buffers live is
//! each feed's private business — a single inline spare, or the mmap
//! source's reusable decode buffer.
//!
//! ## Pipeline metrics
//!
//! On top of the `phase_seconds{phase=decode|route|step|merge}` spans the
//! sharded placement records how well decode and stepping overlap:
//!
//! * `decode_stall_seconds` — histogram of the time a shard worker
//!   waited for its next batch (per batch);
//! * `step_stall_seconds` — histogram of the time the router blocked on
//!   a full shard queue (per batch sent);
//! * `pipeline_queue_depth{shard, stage=step}` — per-shard batches in
//!   flight at each worker dequeue;
//! * `pipeline_occupancy` — gauge in `[0, 1]`: the mean over the shards
//!   of the fraction of each worker's life spent stepping.
//!
//! All four are recorded only while the recorder is enabled.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use dirsim_mem::{BlockAddr, CacheStorage, FiniteCache, FxHashMap};
use dirsim_obs::{Recorder, Span};
use dirsim_protocol::{CoherenceProtocol, Scheme};
use dirsim_trace::source::{BorrowedChunkSource, TraceSource};
use dirsim_trace::{AccessKind, MemRef};

use crate::engine::{Lane, ShardKey, SimConfig, SimError, SimResult, StepFailure};
use crate::error::{Error, InvariantError};
use crate::kernel::{DecodedRef, LaneKernel, NO_VICTIM};

/// Capacity (in batches) of each shard's bounded channel.
const SHARD_CHANNEL_DEPTH: usize = 4;

/// The step stage's lane state, struct-of-arrays: one entry per scheme in
/// each parallel vector, so the inner loop walks contiguous accumulation
/// state instead of chasing one boxed bundle per scheme.
///
/// `kernels[i]` is `Some` when lane `i` steps through a memoized
/// transition table (see [`crate::kernel`]); its protocol instance then
/// stays untouched until the kernel either finishes (the instance is
/// dropped) or overflows (the instance is replaced by a materialized
/// machine and the lane continues on the match path, bit-identically).
/// While any kernel lane is live the bank also keeps a shared decode
/// table: every distinct block address is interned to a dense index
/// exactly once (`intern`/`addrs`), and each chunk is decoded once into
/// `decoded` before the lanes step it — so the block-map hash probe and
/// cache attribution are paid per *reference*, not per reference × lane.
///
/// Under a finite geometry the decode pass also owns the LRU bookkeeping:
/// a lane's finite-cache contents depend only on the reference stream and
/// the geometry — never the scheme — so every lane's replica is
/// bit-identical, and the bank keeps exactly one (`shared_finite`),
/// probed and updated once per reference. Kernel lanes receive the
/// residency verdict and victim choice inside the [`DecodedRef`]. When a
/// kernel lane overflows mid-chunk, its private replica (needed by the
/// match-path continuation) is reconstructed by replaying the chunk
/// prefix onto `finite_snapshot`, the clone taken at chunk start.
struct LaneBank {
    protocols: Vec<Box<dyn CoherenceProtocol>>,
    kernels: Vec<Option<LaneKernel>>,
    lanes: Vec<Lane>,
    /// Block address → dense index shared by every kernel lane.
    intern: FxHashMap<BlockAddr, u32>,
    /// Reverse table: dense index → block address, for materializing.
    addrs: Vec<BlockAddr>,
    /// Per-chunk decoded references, recycled across chunks.
    decoded: Vec<DecodedRef>,
    /// The one finite-cache replica shared by every kernel lane.
    shared_finite: Vec<FiniteCache<()>>,
    /// Chunk-start clone of `shared_finite`, for overflow reconstruction.
    finite_snapshot: Vec<FiniteCache<()>>,
}

impl LaneBank {
    fn new(config: &SimConfig, schemes: &[Scheme], caches: u32) -> Self {
        let protocols: Vec<Box<dyn CoherenceProtocol>> =
            schemes.iter().map(|&s| s.build(caches)).collect();
        let lanes: Vec<Lane> = protocols
            .iter()
            .map(|p| Lane::new(config, p.name()))
            .collect();
        // `KernelPolicy::Required` above the kernel cap was rejected with
        // a typed error before any bank was built (`validate_run`).
        let kernels: Vec<Option<LaneKernel>> = schemes
            .iter()
            .map(|&s| {
                config
                    .kernel_eligible()
                    .then(|| LaneKernel::new(s, caches))
                    .flatten()
            })
            .collect();
        LaneBank {
            protocols,
            kernels,
            lanes,
            intern: FxHashMap::default(),
            addrs: Vec::new(),
            decoded: Vec::new(),
            shared_finite: Vec::new(),
            finite_snapshot: Vec::new(),
        }
    }

    /// Number of lanes currently stepping through table kernels.
    fn kernel_lanes(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_some()).count()
    }

    /// Steps every lane over one chunk. The kernel/match dispatch is
    /// hoisted out of the per-reference loop, and when any kernel lane is
    /// live the chunk is decoded exactly once for all of them. A single
    /// kernel lane (the serial oracle's shape) fuses decode and step into
    /// one pass instead of staging through the decode buffer.
    fn step_chunk(&mut self, config: &SimConfig, refs: &[MemRef]) -> Result<(), Error> {
        let LaneBank {
            protocols,
            kernels,
            lanes,
            intern,
            addrs,
            decoded,
            shared_finite,
            finite_snapshot,
        } = self;
        let live_kernels = kernels.iter().filter(|k| k.is_some()).count();
        if live_kernels > 0 && config.geometry.is_some() {
            // Keep the chunk-start LRU state around so an overflowing
            // lane can reconstruct its own replica as of the failed
            // reference (the shared replica will have advanced past it).
            finite_snapshot.clear();
            finite_snapshot.extend(shared_finite.iter().cloned());
        }
        if live_kernels > 1 {
            decoded.clear();
            decoded.reserve(refs.len());
            for r in refs {
                decoded.push(decode_ref(config, intern, addrs, shared_finite, r));
            }
        }
        for i in 0..lanes.len() {
            // Take the kernel out so the overflow path can replace the
            // protocol instance without aliasing; put it back on success.
            if let Some(mut kernel) = kernels[i].take() {
                let lane = &mut lanes[i];
                let mut overflowed_at = None;
                if live_kernels > 1 {
                    for (j, &d) in decoded.iter().enumerate() {
                        if lane.step_with_kernel(&mut kernel, d).is_err() {
                            overflowed_at = Some(j);
                            break;
                        }
                    }
                } else {
                    for (j, r) in refs.iter().enumerate() {
                        let d = decode_ref(config, intern, addrs, shared_finite, r);
                        if lane.step_with_kernel(&mut kernel, d).is_err() {
                            overflowed_at = Some(j);
                            break;
                        }
                    }
                }
                match overflowed_at {
                    None => kernels[i] = Some(kernel),
                    // Overflow: the failed reference mutated nothing in
                    // the lane, so settle the batched counts, materialize
                    // the machine, rebuild the lane's finite replica as
                    // of the failed reference, and re-step from it on the
                    // match path. The kernel stays dropped.
                    Some(j) => {
                        lanes[i].absorb_kernel_hits(&mut kernel);
                        protocols[i] = kernel.materialize(addrs);
                        if config.geometry.is_some() {
                            lanes[i].restore_finite(replay_finite(
                                config,
                                finite_snapshot,
                                &refs[..j],
                            ));
                        }
                        step_direct(
                            config,
                            &mut lanes[i],
                            protocols[i].as_mut(),
                            refs[j..].iter().copied(),
                        )?;
                    }
                }
            } else {
                step_direct(
                    config,
                    &mut lanes[i],
                    protocols[i].as_mut(),
                    refs.iter().copied(),
                )?;
            }
        }
        Ok(())
    }

    fn finish(self) -> Vec<SimResult> {
        self.lanes
            .into_iter()
            .zip(self.kernels)
            .zip(self.protocols)
            .map(|((lane, kernel), protocol)| match kernel {
                Some(mut kernel) => lane.finish_with_kernel(&mut kernel),
                None => lane.finish(protocol.as_ref()),
            })
            .collect()
    }
}

/// Decodes one reference for the kernel lanes: block mapping, cache
/// attribution, bank-wide block-index interning, and — under a finite
/// geometry — the shared residency probe, LRU victim choice, and LRU
/// commit, each paid once per reference no matter how many lanes replay
/// the result. The LRU op sequence on the shared replica (fused probe on
/// a hit; `touch` then `insert` on a miss) matches `Lane::step`'s
/// tick-for-tick, so the replica stays bit-identical to what every
/// match-based lane would hold.
#[inline]
fn decode_ref(
    config: &SimConfig,
    intern: &mut FxHashMap<BlockAddr, u32>,
    addrs: &mut Vec<BlockAddr>,
    shared_finite: &mut Vec<FiniteCache<()>>,
    r: &MemRef,
) -> DecodedRef {
    if r.kind == AccessKind::InstrFetch {
        return DecodedRef::instr();
    }
    let block = config.block_map.block_of(r.addr);
    let block_idx = *intern.entry(block).or_insert_with(|| {
        let idx = u32::try_from(addrs.len()).expect("fewer than 2^32 blocks");
        addrs.push(block);
        idx
    });
    let cache = config.sharing.cache_of(r);
    let mut resident = true;
    let mut victim_idx = NO_VICTIM;
    if let Some(geometry) = config.geometry {
        while shared_finite.len() <= cache.index() {
            shared_finite.push(
                FiniteCache::new(geometry).expect("geometry validated at configuration time"),
            );
        }
        let fc = &mut shared_finite[cache.index()];
        if fc.touch_if_resident(block).is_none() {
            resident = false;
            if let Some(v) = fc.would_evict(block) {
                victim_idx = *intern
                    .get(&v)
                    .expect("victim blocks were interned by their own data refs");
            }
            let touched = fc.touch(block);
            debug_assert!(touched.is_none(), "the fused probe proved a miss");
            fc.insert(block, ());
        }
    }
    DecodedRef {
        block_idx,
        victim_idx,
        cache,
        write: r.kind == AccessKind::Write,
        resident,
    }
}

/// Reconstructs the finite-cache replica a match-based lane would hold
/// after the chunk prefix `refs`: a clone of the chunk-start snapshot
/// advanced by each data reference's touch/insert LRU ops — the exact op
/// sequence `Lane::step` performs. Used when a kernel lane overflows
/// mid-chunk: kernel lanes carry no finite state of their own (the
/// bank's shared replica does), so the match-path continuation needs a
/// private copy as of the failed reference.
fn replay_finite(
    config: &SimConfig,
    snapshot: &[FiniteCache<()>],
    refs: &[MemRef],
) -> Vec<FiniteCache<()>> {
    let Some(geometry) = config.geometry else {
        return Vec::new();
    };
    let mut finite: Vec<FiniteCache<()>> = snapshot.to_vec();
    for r in refs {
        if r.kind == AccessKind::InstrFetch {
            continue;
        }
        let block = config.block_map.block_of(r.addr);
        let cache = config.sharing.cache_of(r);
        while finite.len() <= cache.index() {
            finite.push(
                FiniteCache::new(geometry).expect("geometry validated at configuration time"),
            );
        }
        let fc = &mut finite[cache.index()];
        if fc.touch(block).is_none() {
            fc.insert(block, ());
        }
    }
    finite
}

/// Steps one lane over a reference stream on the match-based path: the
/// one match-path step loop, shared by the lane banks and
/// [`Simulator::run`](crate::engine::Simulator::run).
pub(crate) fn step_direct<I>(
    config: &SimConfig,
    lane: &mut Lane,
    protocol: &mut dyn CoherenceProtocol,
    refs: I,
) -> Result<(), Error>
where
    I: IntoIterator<Item = MemRef>,
{
    for r in refs {
        let index = lane.next_index();
        if let Err(failure) = lane.step(config, protocol, r) {
            return Err(step_error(protocol.name(), index, failure));
        }
    }
    Ok(())
}

/// Attributes a step failure to its scheme and reference as a typed
/// [`Error`].
#[cold]
fn step_error(scheme: String, ref_index: u64, failure: StepFailure) -> Error {
    match failure {
        StepFailure::Invariant { violation, .. } => Error::Invariant(InvariantError {
            scheme,
            ref_index,
            violation,
        }),
        StepFailure::Oracle(violation) => Error::Sim(SimError {
            scheme,
            ref_index,
            violation,
        }),
    }
}

/// The decode-stage boundary: lends each decoded chunk to the step side.
/// `next` returning `Ok(None)` means end of stream; the returned slice
/// is valid until the next call, so the step side never owns (or
/// copies) chunk storage. Where the buffers live — a single inline
/// spare, or the mmap source's reusable decode buffer — is each feed's
/// private business.
trait ChunkFeed {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error>;
}

/// Owned-buffer decode: reads the source on the calling thread, between
/// chunks, with a single recycled buffer.
struct InlineFeed<'a> {
    source: &'a mut dyn TraceSource,
    chunk: usize,
    spare: Vec<MemRef>,
    rec: &'a dyn Recorder,
}

impl ChunkFeed for InlineFeed<'_> {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error> {
        let decode = Span::with_labels(self.rec, "phase_seconds", &[("phase", "decode")]);
        let n = self.source.read_chunk(&mut self.spare, self.chunk)?;
        drop(decode);
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(&self.spare))
    }
}

/// Zero-copy decode for sources with a borrowed-chunk view (see
/// [`TraceSource::borrowed`]): each chunk is decoded once into storage
/// the source owns and lent straight through to the step side — no
/// copy into a feed-side spare.
struct BorrowedFeed<'a> {
    source: &'a mut dyn BorrowedChunkSource,
    chunk: usize,
    rec: &'a dyn Recorder,
}

impl ChunkFeed for BorrowedFeed<'_> {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error> {
        let decode = Span::with_labels(self.rec, "phase_seconds", &[("phase", "decode")]);
        let chunk = self.source.next_chunk(self.chunk)?;
        drop(decode);
        if chunk.is_empty() {
            return Ok(None);
        }
        Ok(Some(chunk))
    }
}

/// The consumer half of the decode stage: pulls lent chunks from the
/// feed, runs the observer hook in stream order on the calling thread,
/// and hands each chunk to `sink` (the route/step side). Chunk storage
/// stays with the feed — the lease ends when the next chunk is pulled.
fn drive(
    rec: &dyn Recorder,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
    sink: &mut dyn FnMut(&[MemRef]) -> Result<(), Error>,
) -> Result<(), Error> {
    while let Some(buf) = feed.next()? {
        rec.counter("engine_refs", &[], buf.len() as u64);
        for r in buf {
            observe(r);
        }
        sink(buf)?;
    }
    Ok(())
}

/// Single-worker placement: the route stage is the identity and every
/// lane steps on the calling thread.
fn drive_in_thread(
    config: SimConfig,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    let mut bank = LaneBank::new(&config, schemes, caches);
    rec.counter("kernel_lanes", &[], bank.kernel_lanes() as u64);
    let mut sink = |refs: &[MemRef]| -> Result<(), Error> {
        let _step = Span::with_labels(rec, "phase_seconds", &[("phase", "step")]);
        bank.step_chunk(&config, refs)
    };
    drive(rec, feed, observe, &mut sink)?;
    Ok(bank.finish())
}

/// Sharded placement: the route stage partitions each chunk under the
/// configuration's [`ShardKey`] into per-shard bounded queues, one worker
/// thread steps each shard, and the merge stage sums the per-shard
/// counters (all commutative, so totals are bit-identical to serial).
/// Decode and routing stay on the calling thread, overlapped with the
/// workers' stepping.
#[allow(clippy::too_many_arguments)]
fn drive_sharded(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    let shard_key = ShardKey::for_config(&config);
    let enabled = rec.enabled();
    let queue_depth: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let queue_depth = &queue_depth;

    let per_worker: Result<Vec<(Vec<SimResult>, f64)>, Error> = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(workers);
        let mut recycle_rxs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (shard, depth) in queue_depth.iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Vec<MemRef>>(SHARD_CHANNEL_DEPTH);
            // Return channel for spent batch buffers: workers hand the
            // emptied Vec back so the router reuses its capacity instead
            // of allocating a fresh staging buffer per batch.
            let (recycle_tx, recycle_rx) =
                mpsc::sync_channel::<Vec<MemRef>>(SHARD_CHANNEL_DEPTH + 2);
            txs.push(tx);
            recycle_rxs.push(recycle_rx);
            handles.push(
                scope.spawn(move || -> Result<(Vec<SimResult>, f64), Error> {
                    let shard_label = shard.to_string();
                    let mut bank = LaneBank::new(&config, schemes, caches);
                    // `Some` iff the recorder is enabled: when the worker
                    // started waiting for work, for the occupancy gauge.
                    let started = enabled.then(Instant::now);
                    let mut busy = 0.0;
                    loop {
                        let wait = enabled.then(Instant::now);
                        let Ok(mut batch) = rx.recv() else { break };
                        if let Some(wait) = wait {
                            rec.observe("decode_stall_seconds", &[], wait.elapsed().as_secs_f64());
                            let queued = depth.fetch_sub(1, Ordering::Relaxed);
                            rec.observe(
                                "pipeline_queue_depth",
                                &[("shard", &shard_label), ("stage", "step")],
                                queued as f64,
                            );
                        }
                        let step = Span::with_labels(
                            rec,
                            "phase_seconds",
                            &[("phase", "step"), ("shard", &shard_label)],
                        );
                        let stepping = enabled.then(Instant::now);
                        bank.step_chunk(&config, &batch)?;
                        if let Some(stepping) = stepping {
                            busy += stepping.elapsed().as_secs_f64();
                        }
                        drop(step);
                        batch.clear();
                        // A full (or closed) return queue just means this
                        // buffer isn't reused; dropping it is harmless.
                        let _ = recycle_tx.try_send(batch);
                    }
                    let occupancy = started.map_or(1.0, |started| {
                        let elapsed = started.elapsed().as_secs_f64();
                        if elapsed > 0.0 {
                            (busy / elapsed).clamp(0.0, 1.0)
                        } else {
                            1.0
                        }
                    });
                    Ok((bank.finish(), occupancy))
                }),
            );
        }

        // Hands one batch to its shard. A closed channel means the worker
        // already failed; its error surfaces at join.
        let send = |shard: usize, batch: Vec<MemRef>| {
            if !enabled {
                let _ = txs[shard].send(batch);
                return;
            }
            queue_depth[shard].fetch_add(1, Ordering::Relaxed);
            let wait = Instant::now();
            let _ = txs[shard].send(batch);
            rec.observe("step_stall_seconds", &[], wait.elapsed().as_secs_f64());
        };

        // Routing by key (not by hash) keeps the assignment
        // deterministic, so per-shard subsequences — and therefore merged
        // counters — are reproducible run to run.
        let mut staging: Vec<Vec<MemRef>> =
            (0..workers).map(|_| Vec::with_capacity(chunk)).collect();
        let mut sink = |refs: &[MemRef]| -> Result<(), Error> {
            let route = Span::with_labels(rec, "phase_seconds", &[("phase", "route")]);
            for r in refs {
                let block = config.block_map.block_of(r.addr);
                let shard = shard_key.shard_of(block, workers);
                staging[shard].push(*r);
            }
            drop(route);
            for (shard, pending) in staging.iter_mut().enumerate() {
                if pending.len() >= chunk {
                    let fresh = recycle_rxs[shard]
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(chunk));
                    send(shard, std::mem::replace(pending, fresh));
                }
            }
            Ok(())
        };
        let driven = drive(rec, feed, observe, &mut sink);
        for (shard, pending) in staging.into_iter().enumerate() {
            if !pending.is_empty() {
                send(shard, pending);
            }
        }
        drop(txs);

        let mut results = Vec::with_capacity(workers);
        let mut worker_err: Option<Error> = None;
        for handle in handles {
            match handle.join().expect("shard worker panicked") {
                Ok(shard_results) => results.push(shard_results),
                Err(e) => {
                    if worker_err.is_none() {
                        worker_err = Some(e);
                    }
                }
            }
        }
        // A decode (or route) failure takes precedence over whatever the
        // starved workers reported.
        driven?;
        if let Some(e) = worker_err {
            return Err(e);
        }
        Ok(results)
    });

    let per_worker = per_worker?;
    if enabled {
        for (shard, (shard_results, _)) in per_worker.iter().enumerate() {
            let shard_label = shard.to_string();
            let labels = [("shard", shard_label.as_str())];
            // All lanes in one shard see the same subsequence, so any
            // lane's `refs` is the shard's reference count.
            rec.counter("shard_refs", &labels, shard_results[0].refs);
            let ops: u64 = shard_results.iter().map(|r| r.ops.total()).sum();
            rec.counter("shard_ops", &labels, ops);
        }
        let occupancy: f64 = per_worker.iter().map(|(_, o)| o).sum::<f64>() / workers as f64;
        rec.gauge("pipeline_occupancy", &[], occupancy);
    }

    // Merge shard results per scheme. Every SimResult field is a
    // commutative sum (or a histogram of sums), so the totals equal a
    // serial run's bit for bit.
    let merge = Span::with_labels(rec, "phase_seconds", &[("phase", "merge")]);
    let mut shards = per_worker
        .into_iter()
        .map(|(shard_results, _)| shard_results);
    let mut merged = shards.next().expect("at least one worker");
    for shard_results in shards {
        for (acc, r) in merged.iter_mut().zip(shard_results.iter()) {
            acc.merge(r);
        }
    }
    drop(merge);
    Ok(merged)
}

/// Runs the pipeline over `source`. The source kind picks the feed (the
/// zero-copy [`BorrowedFeed`] when the source has a borrowed-chunk view,
/// the owned-buffer [`InlineFeed`] otherwise) and `workers` picks the
/// step side (in-thread for one, sharded for more); decode always runs
/// on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    source: &mut dyn TraceSource,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    let mut place = |feed: &mut dyn ChunkFeed| {
        if workers > 1 {
            drive_sharded(config, chunk, workers, rec, schemes, caches, feed, observe)
        } else {
            drive_in_thread(config, rec, schemes, caches, feed, observe)
        }
    };
    let results = match source.borrowed() {
        Some(source) => place(&mut BorrowedFeed { source, chunk, rec })?,
        None => place(&mut InlineFeed {
            source,
            chunk,
            spare: Vec::with_capacity(chunk),
            rec,
        })?,
    };
    record_scheme_totals(rec, &results);
    Ok(results)
}

/// Record per-scheme result totals into `recorder`: `scheme_refs`,
/// `scheme_transactions`, and a `scheme_ops` counter per non-zero bus
/// operation. Shared by every placement so the exported totals do not
/// depend on how the run was parallelised.
pub(crate) fn record_scheme_totals(recorder: &dyn Recorder, results: &[SimResult]) {
    if !recorder.enabled() {
        return;
    }
    for r in results {
        let labels = [("scheme", r.scheme.as_str())];
        recorder.counter("scheme_refs", &labels, r.refs);
        recorder.counter("scheme_transactions", &labels, r.transactions);
        for (op, count) in r.ops.iter() {
            if count > 0 {
                recorder.counter(
                    "scheme_ops",
                    &[("op", op.name()), ("scheme", r.scheme.as_str())],
                    count,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::BroadcastSimulator;
    use dirsim_trace::source::IterSource;
    use dirsim_trace::Scenario;

    const REFS: usize = 12_000;

    fn trace() -> Vec<MemRef> {
        Scenario::named("pops")
            .unwrap()
            .workload()
            .take(REFS)
            .collect()
    }

    #[test]
    fn borrowed_decode_path_matches_owned_for_every_worker_count() {
        // An mmap-backed source takes the zero-copy BorrowedFeed path
        // through `run`; results must be bit-identical to the
        // owned-buffer IterSource path.
        let refs = trace();
        let path = std::env::temp_dir().join(format!(
            "dirsim-pipeline-borrowed-{}.dtr",
            std::process::id()
        ));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        dirsim_trace::io::write_binary(&mut file, refs.iter().copied()).unwrap();
        std::io::Write::flush(&mut file).unwrap();
        drop(file);

        let schemes = Scheme::paper_lineup();
        for workers in [1, 3, 8] {
            let engine = BroadcastSimulator::paper().workers(workers).chunk_size(512);
            let owned = engine
                .run(&schemes, 4, IterSource::new(refs.iter().copied()))
                .unwrap();
            let mmap = engine
                .run(
                    &schemes,
                    4,
                    dirsim_trace::MmapTraceSource::open(&path).unwrap(),
                )
                .unwrap();
            assert_eq!(owned, mmap, "workers = {workers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlapped_observer_sees_every_reference_in_order() {
        // With two or more workers the calling thread keeps decoding and
        // routing while the shards step; the observer runs on the decode
        // side and must still see the trace in its original order, on
        // both the owned and the borrowed feed.
        let refs = trace();
        let path = std::env::temp_dir().join(format!(
            "dirsim-pipeline-observed-{}.dtr",
            std::process::id()
        ));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        dirsim_trace::io::write_binary(&mut file, refs.iter().copied()).unwrap();
        std::io::Write::flush(&mut file).unwrap();
        drop(file);

        let engine = BroadcastSimulator::paper().workers(2).chunk_size(256);
        let mut owned = Vec::new();
        engine
            .run_observed(
                &[Scheme::Wti],
                4,
                IterSource::new(refs.iter().copied()),
                |r| owned.push(*r),
            )
            .unwrap();
        assert_eq!(owned, refs);
        let mut borrowed = Vec::new();
        engine
            .run_observed(
                &[Scheme::Wti],
                4,
                dirsim_trace::MmapTraceSource::open(&path).unwrap(),
                |r| borrowed.push(*r),
            )
            .unwrap();
        assert_eq!(borrowed, refs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlapped_surfaces_decode_errors() {
        // A decode error after several chunks have already been routed to
        // the shard workers must still come back as a typed trace error,
        // not a hang or a panic on the worker side.
        let refs = trace();
        let mut encoded = Vec::new();
        dirsim_trace::io::write_binary(&mut encoded, refs.iter().copied()).unwrap();
        encoded.truncate(encoded.len() - 3);
        for workers in [1, 2, 4] {
            let err = BroadcastSimulator::paper()
                .workers(workers)
                .chunk_size(256)
                .run(
                    &[Scheme::Wti],
                    4,
                    dirsim_trace::io::read_binary(std::io::Cursor::new(encoded.clone())),
                )
                .unwrap_err();
            assert!(matches!(err, Error::TraceIo(_)), "workers = {workers}");
        }
    }
}
