//! Latent Dirichlet Allocation by collapsed Gibbs sampling (paper §5.2.4,
//! evaluated in Figure 12 against Petuum, Glint and Spark MLlib).
//!
//! The shared state is the `K × V` word-topic count matrix plus the
//! length-`K` topic totals; per-document topic counts and per-token
//! assignments live in executor state. Backends differ in how workers sync
//! the word-topic matrix each sweep:
//!
//! * **PS2** — block-pull only the words present in the partition
//!   (co-location makes a word's whole topic column one server's reply),
//!   push sparse count deltas, 4-byte compressed values (§6.3.3).
//! * **Petuum-style** — pull the *full* model every sweep (no sparse
//!   communication), push sparse deltas.
//! * **Glint-style** — per-key granularity: one pull request per word and
//!   one dense push per touched word, uncompressed (Glint's "limited
//!   primitive interfaces", §7 — no batched block protocol).
//! * **Spark MLlib** — no parameter servers: the driver broadcasts the full
//!   model and collects dense per-worker count matrices (driver in-cast).

use ps2_core::{Dcv, Ps2Context, WorkCtx};
use ps2_data::{CorpusGen, Document};
use ps2_simnet::SimCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::TrainingTrace;

/// Dirichlet priors, paper Table 4: document-topic `α = 0.5`, topic-word
/// `β = 0.01`.
pub(crate) const ALPHA: f64 = 0.5;
pub(crate) const BETA: f64 = 0.01;

/// Execution backend for LDA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LdaBackend {
    Ps2Dcv,
    PetuumStyle,
    GlintStyle,
    SparkDriver,
}

impl LdaBackend {
    pub fn label(&self) -> &'static str {
        match self {
            LdaBackend::Ps2Dcv => "PS2-LDA",
            LdaBackend::PetuumStyle => "Petuum-LDA",
            LdaBackend::GlintStyle => "Glint-LDA",
            LdaBackend::SparkDriver => "MLlib-LDA",
        }
    }
}

/// LDA training configuration.
#[derive(Clone, Debug)]
pub struct LdaConfig {
    pub corpus: CorpusGen,
    /// Topics `K`.
    pub topics: u32,
    pub iterations: usize,
}

/// Per-partition sampler state kept in executor memory between sweeps.
struct GibbsState {
    /// `z[doc][token]` topic assignments (tokens expanded by count).
    z: Vec<Vec<u32>>,
    /// `nd[doc][topic]` counts.
    nd: Vec<Vec<u32>>,
    /// Sorted distinct words of this partition.
    words: Vec<u64>,
    rng: StdRng,
}

const KEY_GIBBS: u64 = 0x1da;

fn expand_tokens(doc: &Document) -> Vec<u32> {
    let mut toks = Vec::with_capacity(doc.tokens() as usize);
    for &(w, c) in &doc.words {
        for _ in 0..c {
            toks.push(w);
        }
    }
    toks
}

/// Per-word topic-count deltas, keyed by global word id.
type WordDeltas = Vec<(u64, Vec<f64>)>;

/// Initialize assignments and return the partition's initial count deltas.
fn init_state(
    docs: &[Document],
    k: u32,
    seed: u64,
    part: usize,
) -> (GibbsState, WordDeltas, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ (part as u64) << 17);
    let mut z = Vec::with_capacity(docs.len());
    let mut nd = Vec::with_capacity(docs.len());
    let mut word_deltas: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut totals = vec![0.0; k as usize];
    let mut words: Vec<u64> = Vec::new();
    for doc in docs {
        let toks = expand_tokens(doc);
        let mut zd = Vec::with_capacity(toks.len());
        let mut ndd = vec![0u32; k as usize];
        for &w in &toks {
            let topic = rng.gen_range(0..k);
            zd.push(topic);
            ndd[topic as usize] += 1;
            word_deltas
                .entry(w as u64)
                .or_insert_with(|| vec![0.0; k as usize])[topic as usize] += 1.0;
            totals[topic as usize] += 1.0;
        }
        for &(w, _) in &doc.words {
            words.push(w as u64);
        }
        z.push(zd);
        nd.push(ndd);
    }
    words.sort_unstable();
    words.dedup();
    let state = GibbsState { z, nd, words, rng };
    (state, word_deltas.into_iter().collect(), totals)
}

/// One Gibbs sweep over a partition against local copies of the counts.
/// Returns `(log-likelihood proxy, token count, word deltas, total deltas)`.
fn sweep(
    docs: &[Document],
    state: &mut GibbsState,
    nw: &mut [Vec<f64>], // [local word idx][topic]
    nk: &mut [f64],      // [topic]
    word_index: &dyn Fn(u64) -> usize,
    k: u32,
    vocab: f64,
) -> (f64, u64, WordDeltas, Vec<f64>) {
    let kk = k as usize;
    let mut deltas: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut tot_delta = vec![0.0; kk];
    let mut loglik = 0.0;
    let mut tokens = 0u64;
    let mut probs = vec![0.0; kk];
    for (d, doc) in docs.iter().enumerate() {
        let toks = expand_tokens(doc);
        for (t, &w) in toks.iter().enumerate() {
            let wi = word_index(w as u64);
            let old = state.z[d][t] as usize;
            // Remove the token.
            state.nd[d][old] -= 1;
            nw[wi][old] -= 1.0;
            nk[old] -= 1.0;
            // Conditional distribution.
            let mut sum = 0.0;
            for topic in 0..kk {
                let p = (state.nd[d][topic] as f64 + ALPHA) * (nw[wi][topic] + BETA)
                    / (nk[topic] + vocab * BETA);
                probs[topic] = p;
                sum += p;
            }
            let mut u = state.rng.gen::<f64>() * sum;
            let mut new = kk - 1;
            for (topic, &p) in probs.iter().enumerate() {
                if u < p {
                    new = topic;
                    break;
                }
                u -= p;
            }
            // Add it back.
            state.z[d][t] = new as u32;
            state.nd[d][new] += 1;
            nw[wi][new] += 1.0;
            nk[new] += 1.0;
            let dv = deltas.entry(w as u64).or_insert_with(|| vec![0.0; kk]);
            dv[old] -= 1.0;
            dv[new] += 1.0;
            tot_delta[old] -= 1.0;
            tot_delta[new] += 1.0;
            loglik += (probs[new] / sum).max(1e-300).ln();
            tokens += 1;
        }
    }
    let deltas: WordDeltas = deltas
        .into_iter()
        .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
        .collect();
    (loglik, tokens, deltas, tot_delta)
}

/// Train LDA; the trace records `(virtual time, negative mean token
/// log-likelihood)` per sweep — lower is better, like the paper's loss axes.
pub fn train_lda(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LdaConfig,
    backend: LdaBackend,
) -> TrainingTrace {
    let gen = cfg.corpus.clone();
    let parts = gen.partitions;
    let k = cfg.topics;
    let vocab = gen.vocab as u64;
    let seed = gen.seed;
    let mut trace = TrainingTrace::new(backend.label());

    let gen2 = gen.clone();
    let data = ps2
        .spark
        .source(parts, move |p, w| {
            let docs = gen2.partition(p);
            let toks: u64 = docs.iter().map(|d| d.tokens()).sum();
            w.sim.charge_mem(8 * toks);
            docs
        })
        .cache();
    let _ = ps2.spark.count(ctx, &data);

    if backend == LdaBackend::SparkDriver {
        return train_lda_driver(ctx, ps2, cfg, &data, &mut trace);
    }

    // Word-topic counts: K rows over the vocabulary; topic totals: 1 row of
    // K. PS2 compresses values on the wire.
    let mut wt: Dcv = ps2.dense_dcv(ctx, vocab, k);
    let mut nk_dcv: Dcv = ps2.dense_dcv(ctx, k as u64, 1);
    if backend == LdaBackend::Ps2Dcv {
        wt = wt.compressed();
        nk_dcv = nk_dcv.compressed();
    }
    let all_rows: Vec<u32> = (0..k).collect();

    // Initialization sweep: random assignments pushed to the servers.
    {
        let wtc = wt.clone();
        let nkc = nk_dcv.clone();
        let rows = all_rows.clone();
        ps2.spark
            .for_each_partition(ctx, &data, move |docs, w| {
                let (state, word_deltas, totals) = init_state(docs, k, seed, w.partition);
                let toks: u64 = state.z.iter().map(|z| z.len() as u64).sum();
                w.sim.charge_flops(4 * toks);
                wtc.push_block(w.sim, &rows, &word_deltas);
                nkc.add_dense(w.sim, &totals);
                w.put_state(KEY_GIBBS, state);
            })
            .expect("LDA init failed");
    }

    let backend_kind = backend;

    let start = ctx.now();
    for _sweep in 0..cfg.iterations {
        let wtc = wt.clone();
        let nkc = nk_dcv.clone();
        let rows = all_rows.clone();
        let results = ps2
            .spark
            .run_job(
                ctx,
                &data,
                move |docs, w: &mut WorkCtx<'_, '_>| {
                    let mut state: GibbsState =
                        w.take_state(KEY_GIBBS).expect("gibbs state missing");
                    // Pull the word-topic counts this partition needs.
                    let (mut nw, index_words): (Vec<Vec<f64>>, Vec<u64>) = match backend_kind {
                        LdaBackend::PetuumStyle => {
                            // Full-model pull, batched but dense.
                            let all_cols: Vec<u64> = (0..wtc.dim()).collect();
                            let rows_data = wtc.pull_block(w.sim, &rows, &all_cols);
                            (rows_data, all_cols)
                        }
                        LdaBackend::GlintStyle => {
                            // Per-key granularity, but asynchronous (Glint
                            // is an async PS): all per-word requests are in
                            // flight at once, paying per-request headers
                            // instead of batched blocks.
                            let block = wtc.pull_cols_per_key(w.sim, &rows, &state.words);
                            (block, state.words.clone())
                        }
                        _ => {
                            // PS2: one batched block pull per server.
                            let block = wtc.pull_block(w.sim, &rows, &state.words);
                            (block, state.words.clone())
                        }
                    };
                    let mut nk = nkc.pull(w.sim);
                    let toks: u64 = state.z.iter().map(|z| z.len() as u64).sum();
                    // Two fused ops per (token, topic): the sampler keeps
                    // (nw+β)/(nk+Vβ) in a per-word cache.
                    w.sim.charge_flops(toks * 2 * k as u64);
                    let (loglik, tokens, deltas, tot_delta) = {
                        let lookup = |w_id: u64| -> usize {
                            index_words
                                .binary_search(&w_id)
                                .expect("word missing from pulled block")
                        };
                        sweep(docs, &mut state, &mut nw, &mut nk, &lookup, k, vocab as f64)
                    };
                    if backend_kind == LdaBackend::GlintStyle {
                        // Per-key dense pushes, all in flight at once.
                        wtc.push_cols_per_key(w.sim, &rows, &deltas);
                    } else {
                        wtc.push_block(w.sim, &rows, &deltas);
                    }
                    nkc.add_dense(w.sim, &tot_delta);
                    w.put_state(KEY_GIBBS, state);
                    (loglik, tokens)
                },
                |_| 24,
            )
            .expect("LDA sweep failed");
        let (ll, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        trace.record(start, ctx.now(), -ll / n.max(1) as f64);
    }
    trace
}

/// MLlib-style LDA: the driver owns the model, broadcasts it, and collects
/// dense per-worker count matrices.
fn train_lda_driver(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LdaConfig,
    data: &ps2_core::Rdd<Document>,
    trace: &mut TrainingTrace,
) -> TrainingTrace {
    let gen = &cfg.corpus;
    let k = cfg.topics;
    let kk = k as usize;
    let vocab = gen.vocab as usize;
    let seed = gen.seed;
    let model_bytes = (vocab * kk) as u64 * 8;

    // Driver-resident model.
    let mut nw: Vec<Vec<f64>> = vec![vec![0.0; kk]; vocab];
    let mut nk: Vec<f64> = vec![0.0; kk];

    // Workers initialize local assignments and report initial counts.
    let init = ps2
        .spark
        .run_job(
            ctx,
            data,
            move |docs, w| {
                let (state, word_deltas, totals) = init_state(docs, k, seed, w.partition);
                let toks: u64 = state.z.iter().map(|z| z.len() as u64).sum();
                w.sim.charge_flops(4 * toks);
                w.put_state(KEY_GIBBS, state);
                (word_deltas, totals)
            },
            move |_r| 24 + model_bytes, // dense count matrices to the driver
        )
        .expect("LDA init failed");
    for (word_deltas, totals) in init {
        for (wid, dv) in word_deltas {
            for (t, v) in dv.iter().enumerate() {
                nw[wid as usize][t] += v;
            }
        }
        for (t, v) in totals.iter().enumerate() {
            nk[t] += v;
        }
    }

    let start = ctx.now();
    for _sweep in 0..cfg.iterations {
        // Broadcast the dense model.
        let b = ps2
            .spark
            .broadcast(ctx, (nw.clone(), nk.clone()), model_bytes + kk as u64 * 8);
        let results = ps2
            .spark
            .run_job(
                ctx,
                data,
                move |docs, w| {
                    let model = w.broadcast(&b);
                    let (mut nw_local, mut nk_local) = (model.0.clone(), model.1.clone());
                    let mut state: GibbsState =
                        w.take_state(KEY_GIBBS).expect("gibbs state missing");
                    let toks: u64 = state.z.iter().map(|z| z.len() as u64).sum();
                    w.sim.charge_flops(toks * 2 * k as u64);
                    let out = {
                        let lookup = |wid: u64| wid as usize;
                        sweep(
                            docs,
                            &mut state,
                            &mut nw_local,
                            &mut nk_local,
                            &lookup,
                            k,
                            vocab as f64,
                        )
                    };
                    w.put_state(KEY_GIBBS, state);
                    out
                },
                move |_r| 24 + model_bytes, // dense deltas back to the driver
            )
            .expect("LDA sweep failed");
        ps2.spark.drop_broadcast(ctx, b);
        let mut ll = 0.0;
        let mut n = 0u64;
        for (loglik, tokens, deltas, tot_delta) in results {
            ll += loglik;
            n += tokens;
            for (wid, dv) in deltas {
                for (t, v) in dv.iter().enumerate() {
                    nw[wid as usize][t] += v;
                }
            }
            for (t, v) in tot_delta.iter().enumerate() {
                nk[t] += v;
            }
        }
        ctx.charge_flops((vocab * kk) as u64);
        trace.record(start, ctx.now(), -ll / n.max(1) as f64);
    }
    trace.clone()
}
