//! Wide (shuffle) operations: `group_by_key` / `reduce_by_key`.
//!
//! The paper's pipeline starts with Spark "collecting and cleaning" data —
//! work that needs shuffles even though the ML training itself doesn't.
//! This module implements Spark's external-shuffle-service design: each
//! executor machine hosts a *shuffle service* daemon; map tasks write their
//! key-hashed buckets to the local service, reduce tasks fetch their bucket
//! from every service. The map→reduce barrier is the driver's stage
//! boundary, and shuffle blocks survive executor loss (the service is a
//! separate process, exactly why Spark externalized it).

use std::any::Any;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ps2_simnet::fabric::{self, FabricPolicy, StaticRoutes};
use ps2_simnet::hostprof::{self, Scope as ProfScope};
use ps2_simnet::{Envelope, Proc, ProcId, SimCtx, SimRuntime, SimTime, StepCtx, WireSize};

use crate::executor::WorkCtx;
use crate::rdd::Rdd;
use crate::scheduler::{JobError, SparkContext};

/// Message tags for the shuffle service.
mod tags {
    pub const PUT_BUCKETS: u32 = 20;
    pub const FETCH_BUCKET: u32 = 21;

    /// Symbolic name for a tag, for diagnostics.
    pub fn name(tag: u32) -> &'static str {
        match tag {
            PUT_BUCKETS => "PUT_BUCKETS",
            FETCH_BUCKET => "FETCH_BUCKET",
            _ => "?",
        }
    }
}

/// A unique id per shuffle stage.
static NEXT_SHUFFLE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Shuffle traffic rides the shared request fabric. Services are never
/// replaced ([`StaticRoutes`], epoch pinned at 0), so the stale-attempts
/// bound turns a dead service into a loud panic after five 10-second
/// attempts instead of the former unbounded wait. Puts are idempotent by
/// map partition, so a fabric resend racing a slow service is harmless.
fn shuffle_policy() -> FabricPolicy {
    FabricPolicy {
        attempt_timeout: SimTime::from_secs_f64(10.0),
        max_stale_attempts: 5,
        scope: "shuffle.fabric",
    }
}

#[derive(Clone)]
struct PutBuckets {
    shuffle: u64,
    /// Which map partition produced these buckets. Keying the store by this
    /// makes puts idempotent: a map task retried after an executor died
    /// post-write overwrites its own buckets instead of duplicating them.
    map_part: usize,
    /// `buckets[r]` = erased `Vec<(K, V)>` destined for reduce partition `r`.
    buckets: Vec<Arc<dyn Any + Send + Sync>>,
    /// Wire size of each bucket, so fetch replies can be costed.
    bucket_bytes: Vec<u64>,
}

#[derive(Clone)]
struct FetchBucket {
    shuffle: u64,
    reduce: usize,
}

/// One reduce partition's blocks: map partition -> (block, bytes). Keying by
/// map partition makes re-puts from retried map tasks idempotent.
type Blocks = std::collections::BTreeMap<usize, (Arc<dyn Any + Send + Sync>, u64)>;

/// The per-machine shuffle service, a steppable agent.
#[derive(Default)]
pub struct ShuffleService {
    /// (shuffle id, reduce partition) -> its blocks.
    store: HashMap<(u64, usize), Blocks>,
}

impl Proc for ShuffleService {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        match env.tag {
            tags::PUT_BUCKETS => {
                let put: &PutBuckets = env.downcast_ref();
                for (r, (block, bytes)) in put.buckets.iter().zip(&put.bucket_bytes).enumerate() {
                    self.store
                        .entry((put.shuffle, r))
                        .or_default()
                        .insert(put.map_part, (Arc::clone(block), *bytes));
                }
                ctx.reply(&env, (), 8);
            }
            tags::FETCH_BUCKET => {
                let fetch: &FetchBucket = env.downcast_ref();
                let entries = self
                    .store
                    .get(&(fetch.shuffle, fetch.reduce))
                    .cloned()
                    .unwrap_or_default();
                let bytes: u64 = 16 + entries.values().map(|(_, b)| b).sum::<u64>();
                let blocks: Vec<Arc<dyn Any + Send + Sync>> =
                    entries.into_values().map(|(b, _)| b).collect();
                ctx.reply(&env, blocks, bytes);
            }
            other => panic!(
                "{} (proc {}): unknown tag {} ({}) from proc {} — \
                 shuffle services speak PUT_BUCKETS/FETCH_BUCKET only; \
                 a message was misrouted or a tag constant diverged",
                ctx.proc_name(),
                ctx.id().0,
                other,
                tags::name(other),
                env.src.0
            ),
        }
    }
}

/// Deploy one shuffle service per executor machine.
pub fn deploy_shuffle_services(sim: &mut SimRuntime, executors: usize) -> Vec<ProcId> {
    (0..executors)
        .map(|i| sim.spawn_agent_daemon(&format!("shuffle-{i}"), ShuffleService::default()))
        .collect()
}

fn hash_key<K: Hash>(k: &K, parts: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % parts
}

impl SparkContext {
    /// `reduce_by_key`: shuffle `(K, V)` pairs by key hash, combining values
    /// with `combine`. Returns one output partition per shuffle service.
    /// The per-pair wire size is estimated with [`WireSize`].
    pub fn reduce_by_key<K, V>(
        &mut self,
        ctx: &mut SimCtx,
        services: &[ProcId],
        rdd: &Rdd<(K, V)>,
        combine: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Result<Rdd<(K, V)>, JobError>
    where
        K: Clone + Send + Sync + Hash + Eq + Ord + WireSize + 'static,
        V: Clone + Send + Sync + WireSize + 'static,
    {
        let shuffle = NEXT_SHUFFLE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let n_reduce = services.len();
        assert!(n_reduce > 0, "need at least one shuffle service");
        let combine = Arc::new(combine);

        // Map stage: pre-combine locally (Spark's map-side combine), hash
        // into buckets, write to the local shuffle service.
        let services_map: Vec<ProcId> = services.to_vec();
        let comb = Arc::clone(&combine);
        self.run_job(
            ctx,
            rdd,
            move |pairs, w: &mut WorkCtx<'_, '_>| {
                let mut local: HashMap<K, V> = HashMap::new();
                for (k, v) in pairs.iter().cloned() {
                    match local.remove(&k) {
                        Some(acc) => {
                            local.insert(k, comb(acc, v));
                        }
                        None => {
                            local.insert(k, v);
                        }
                    }
                }
                w.charge_scan(pairs.len());
                let mut buckets: Vec<Vec<(K, V)>> = (0..n_reduce).map(|_| Vec::new()).collect();
                for (k, v) in local {
                    buckets[hash_key(&k, n_reduce)].push((k, v));
                }
                let bucket_bytes: Vec<u64> = {
                    let _prof = hostprof::scope(ProfScope::CodecEncode);
                    buckets
                        .iter()
                        .map(|b| {
                            8 + b
                                .iter()
                                .map(|(k, v)| k.wire_size() + v.wire_size())
                                .sum::<u64>()
                        })
                        .collect()
                };
                let total: u64 = bucket_bytes.iter().sum();
                let erased: Vec<Arc<dyn Any + Send + Sync>> = buckets
                    .into_iter()
                    .map(|b| Arc::new(b) as Arc<dyn Any + Send + Sync>)
                    .collect();
                // Local write: the service shares the machine, but it is a
                // distinct process — modelled as a cheap same-rack hop.
                let slot = w.partition % services_map.len();
                let put = PutBuckets {
                    shuffle,
                    map_part: w.partition,
                    buckets: erased,
                    bucket_bytes,
                };
                let _ = fabric::call_slot(
                    w.sim,
                    &StaticRoutes(services_map.clone()),
                    &shuffle_policy(),
                    "put_buckets",
                    tags::PUT_BUCKETS,
                    slot,
                    put,
                    64 + total,
                    1,
                );
            },
            |_| 8,
        )?;

        // Reduce stage: a source RDD whose partitions fetch their bucket
        // from every service and merge.
        let services_fetch: Vec<ProcId> = services.to_vec();
        let comb = combine;
        Ok(Rdd::from_source(n_reduce, move |reduce_part, w| {
            let reqs = (0..services_fetch.len())
                .map(|slot| {
                    let fetch = FetchBucket {
                        shuffle,
                        reduce: reduce_part,
                    };
                    (slot, fetch, 64)
                })
                .collect();
            let replies = fabric::call_slots(
                w.sim,
                &StaticRoutes(services_fetch.clone()),
                &shuffle_policy(),
                "fetch_bucket",
                tags::FETCH_BUCKET,
                reqs,
                1,
            );
            let mut merged: HashMap<K, V> = HashMap::new();
            let mut n = 0usize;
            for env in replies {
                let blocks = env.downcast::<Vec<Arc<dyn Any + Send + Sync>>>();
                for block in blocks {
                    let pairs = block
                        .downcast_ref::<Vec<(K, V)>>()
                        .expect("shuffle block type mismatch");
                    for (k, v) in pairs.iter().cloned() {
                        n += 1;
                        match merged.remove(&k) {
                            Some(acc) => {
                                merged.insert(k, comb(acc, v));
                            }
                            None => {
                                merged.insert(k, v);
                            }
                        }
                    }
                }
            }
            w.charge_scan(n);
            let mut out: Vec<(K, V)> = merged.into_iter().collect();
            // Deterministic output order.
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }))
    }

    /// `group_by_key` built on [`SparkContext::reduce_by_key`] over vectors.
    pub fn group_by_key<K, V>(
        &mut self,
        ctx: &mut SimCtx,
        services: &[ProcId],
        rdd: &Rdd<(K, V)>,
    ) -> Result<Rdd<(K, Vec<V>)>, JobError>
    where
        K: Clone + Send + Sync + Hash + Eq + Ord + WireSize + 'static,
        V: Clone + Send + Sync + WireSize + 'static,
    {
        let listed = rdd.map(|(k, v)| (k.clone(), vec![v.clone()]));
        self.reduce_by_key(ctx, services, &listed, |mut a, mut b| {
            a.append(&mut b);
            a
        })
    }
}
