//! Prefetch plans: a batch's block chain, built ahead of time.
//!
//! A batch's [`TBlock`] chain — `block` → `dedup` → [`cache`] →
//! `sample` per layer, then `preload` — depends only on the batch and
//! the model's [`SamplingSpec`], never on parameters or node memory.
//! [`build_plan`] is the one place that builds it. Models call it
//! through [`chain`] on the compute thread; the pipelined trainer calls
//! it on its sampler stage for batch N+1 while batch N runs
//! forward/backward, and ships the finished chain inside a
//! [`BatchPlan`] attached to the batch. Blocks are `Send + Sync`, so
//! the chain itself moves: nothing is replayed on the compute side.
//!
//! # Determinism and counter contract
//!
//! Dedup is a pure function of the destination list, and temporal
//! sampling seeds one RNG stream per destination from the sampler seed,
//! so a chain built on another thread is bitwise identical to one built
//! inline. Each chain is built exactly once per batch — a plan's chain
//! is handed out once — so every counter for this work (`dedup.*`,
//! `sampler.*`, `preload.*`, `transfer.*`) fires once per batch at any
//! pipeline depth.
//!
//! [`cache`]: crate::op::cache

use std::sync::{Mutex, PoisonError};

use tgl_sampler::TemporalSampler;

use crate::{op, TBatch, TBlock, TContext};

/// A model's chain recipe: everything [`build_plan`] needs to build the
/// model's block chain for a batch.
#[derive(Debug, Clone)]
pub struct SamplingSpec {
    /// Blocks in the chain (message-passing layers).
    pub n_layers: usize,
    /// Apply `op::dedup` to each block before sampling.
    pub dedup: bool,
    /// Apply `op::cache` to each block before sampling. Models set it
    /// only for inference: memoized embeddings go stale as soon as
    /// parameters change, so a training chain never uses the cache.
    /// Such a chain reads the cache when built, so build it just
    /// before its forward pass, not ahead of time.
    pub cache: bool,
    /// Stage features through the pinned pool (`op::preload`). When
    /// false, features stay lazy and load on first access.
    pub preload_pinned: bool,
    /// The model's sampler engine (its seed makes sampling a pure
    /// function of the destination list).
    pub sampler: TemporalSampler,
}

/// A batch's prefetched block chain. The chain is handed out once: a
/// second forward pass over the same batch builds its own.
#[derive(Debug)]
pub struct BatchPlan {
    head: Mutex<Option<TBlock>>,
}

// The chain crosses threads inside a plan; fail the build, not a run,
// if blocks stop being shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TBlock>();
    assert_send_sync::<BatchPlan>();
};

impl BatchPlan {
    /// Takes the chain's head block; `None` once it has been taken.
    pub fn take(&self) -> Option<TBlock> {
        self.head
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Builds `batch`'s block chain per `spec` on the calling thread and
/// wraps it in a plan to attach with [`TBatch::set_plan`].
pub fn build_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> BatchPlan {
    let prep = crate::prof::scope("prep_batch");
    let head = batch.block(ctx);
    drop(prep);
    let mut tail = head.clone();
    for i in 0..spec.n_layers {
        if i > 0 {
            tail = tail.next_block();
        }
        if spec.dedup {
            op::dedup(&tail);
        }
        if spec.cache {
            op::cache(ctx, &tail);
        }
        let _s = crate::prof::scope("sample");
        let csr = tail.graph().tcsr();
        let nbrs = tail.with_dst(|nodes, times| spec.sampler.sample(&csr, nodes, times));
        tail.set_neighborhood(nbrs);
    }
    if spec.preload_pinned {
        let _p = crate::prof::scope("preload");
        op::preload(ctx, &head, true);
    }
    BatchPlan {
        head: Mutex::new(Some(head)),
    }
}

/// The head of `batch`'s block chain: the prefetched one when the batch
/// carries an untaken plan, otherwise one built here by [`build_plan`].
pub fn chain(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
    batch
        .plan()
        .and_then(|plan| plan.take())
        .or_else(|| build_plan(ctx, batch, spec).take())
        .expect("a fresh plan holds its chain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;
    use tgl_tensor::Tensor;

    fn setup() -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (0, 2, 4.0),
                (1, 3, 5.0),
                (3, 4, 6.0),
            ],
        ));
        g.set_node_feats(Tensor::from_vec(
            (0..12).map(|v| v as f32).collect(),
            [6, 2],
        ));
        g.set_edge_feats(Tensor::from_vec((0..6).map(|v| v as f32).collect(), [6, 1]));
        let ctx = TContext::new(Arc::clone(&g));
        (g, ctx)
    }

    fn spec(dedup: bool, cache: bool, preload: bool) -> SamplingSpec {
        SamplingSpec {
            n_layers: 2,
            dedup,
            cache,
            preload_pinned: preload,
            sampler: TemporalSampler::new(3, SamplingStrategy::Recent).with_seed(7),
        }
    }

    /// The chain written out operator by operator, as the paper's
    /// Listing 2 does it.
    fn build_inline(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        let head = batch.block(ctx);
        let mut tail = head.clone();
        for i in 0..spec.n_layers {
            if i > 0 {
                tail = tail.next_block();
            }
            if spec.dedup {
                op::dedup(&tail);
            }
            if spec.cache {
                op::cache(ctx, &tail);
            }
            crate::TSampler::from_engine(spec.sampler.clone()).sample(&tail);
        }
        if spec.preload_pinned {
            op::preload(ctx, &head, true);
        }
        head
    }

    fn assert_chains_identical(a: &TBlock, b: &TBlock) {
        let (mut ca, mut cb) = (Some(a.clone()), Some(b.clone()));
        while let (Some(x), Some(y)) = (&ca, &cb) {
            assert_eq!(x.dst_nodes(), y.dst_nodes());
            assert_eq!(x.dst_times(), y.dst_times());
            assert_eq!(x.src_nodes(), y.src_nodes());
            assert_eq!(x.src_times(), y.src_times());
            assert_eq!(x.eids(), y.eids());
            assert_eq!(x.dst_index(), y.dst_index());
            assert_eq!(x.num_hooks(), y.num_hooks());
            let (nx, ny) = (x.next(), y.next());
            ca = nx;
            cb = ny;
        }
        assert!(ca.is_none() && cb.is_none(), "chain lengths differ");
    }

    fn batch(g: &Arc<TemporalGraph>) -> TBatch {
        let mut batch = TBatch::new(Arc::clone(g), 2..6);
        batch.set_negatives(vec![4, 5, 4, 5]);
        batch
    }

    /// The plan's chain, built on another thread as the pipelined
    /// trainer's sampler stage builds it, equals the inline chain.
    #[test]
    fn plan_rebuild_matches_sequential_chain() {
        for (dedup, cache, preload) in [
            (false, false, false),
            (true, false, false),
            (true, false, true),
            (true, true, true),
        ] {
            let (g, ctx) = setup();
            let (_, ctx_inline) = setup();
            let s = spec(dedup, cache, preload);
            let inline = build_inline(&ctx_inline, &batch(&g), &s);
            let plan = std::thread::scope(|scope| {
                scope
                    .spawn(|| build_plan(&ctx, &batch(&g), &s))
                    .join()
                    .unwrap()
            });
            assert_chains_identical(&inline, &plan.take().unwrap());
        }
    }

    #[test]
    fn staged_features_match_lazy_loads() {
        let (g, ctx) = setup();
        let lazy = build_inline(&ctx, &batch(&g), &spec(true, false, false));
        let staged = build_plan(&ctx, &batch(&g), &spec(true, false, true))
            .take()
            .unwrap();
        let (lazy_tail, staged_tail) = (lazy.tail(), staged.tail());
        assert_eq!(lazy_tail.dstfeat().to_vec(), staged_tail.dstfeat().to_vec());
        assert_eq!(lazy_tail.srcfeat().to_vec(), staged_tail.srcfeat().to_vec());
        assert_eq!(lazy.efeat().to_vec(), staged.efeat().to_vec());
    }

    #[test]
    fn plan_hands_out_its_chain_once() {
        let (g, ctx) = setup();
        let s = spec(true, false, false);
        let mut b = batch(&g);
        let plan = Arc::new(build_plan(&ctx, &b, &s));
        b.set_plan(Arc::clone(&plan));
        let first = chain(&ctx, &b, &s);
        assert!(plan.take().is_none(), "chain() must take the planned chain");
        let second = chain(&ctx, &b, &s);
        assert_chains_identical(&first, &second);
    }
}
