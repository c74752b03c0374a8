//! The `preload` data-movement optimization operator.

use tgl_device::Device;

use crate::{TBlock, TContext};

/// Loads feature data for *all* blocks in the chain onto the compute
/// device ahead of computation, staging host-resident tensors through
/// the context's pre-allocated pinned-memory pool when `use_pin` is
/// set (paper §3.3: "preload() ... focuses on optimizing data
/// movements ... one technique is to use pinned memory to minimize
/// data transfer costs").
///
/// With `use_pin = false` the pageable (slow) path is used, which is
/// what an unoptimized implementation does implicitly on first feature
/// access. In the all-on-GPU configuration (features already on the
/// compute device) this is a no-op — matching the paper's observation
/// that "the preload() operator in TGLite has no effect in this
/// scenario".
pub fn preload(ctx: &TContext, head: &TBlock, use_pin: bool) {
    tgl_obs::counter!("preload.calls").incr();
    let device = ctx.device();
    let mut cur = Some(head.clone());
    while let Some(blk) = cur {
        preload_block(ctx, &blk, device, use_pin);
        cur = blk.next();
    }
}

fn preload_block(ctx: &TContext, blk: &TBlock, device: Device, use_pin: bool) {
    let g = blk.graph();
    let move_to = |t: tgl_tensor::Tensor| -> tgl_tensor::Tensor {
        if t.device() == device {
            t
        } else {
            tgl_obs::counter!("preload.tensors_moved").incr();
            if use_pin {
                t.to_pinned(device, ctx.pinned_pool())
            } else {
                t.to(device)
            }
        }
    };
    let dst = (g.node_feat_dim() > 0).then(|| {
        let gathered = blk.with_dst(|nodes, _| g.node_feat_rows(nodes));
        move_to(gathered)
    });
    let (src, edge) = if blk.has_nbrs() {
        let src = (g.node_feat_dim() > 0).then(|| {
            let gathered = blk.with_nbrs(|n| g.node_feat_rows(&n.src_nodes));
            move_to(gathered)
        });
        let edge = (g.edge_feat_dim() > 0).then(|| {
            let gathered = blk.with_nbrs(|n| g.edge_feat_rows(&n.eids));
            move_to(gathered)
        });
        (src, edge)
    } else {
        (None, None)
    };
    blk.install_feat_cache(dst, src, edge);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TBlock, TContext, TSampler};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;
    use tgl_tensor::Tensor;

    /// Holds a lock for the whole test: these tests read the
    /// process-global transfer stats, and they are the crate's only
    /// tests that move data to another device.
    fn setup(feat_device: Device, compute: Device) -> (MutexGuard<'static, ()>, TContext) {
        static SERIAL: Mutex<()> = Mutex::new(());
        let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let g = Arc::new(TemporalGraph::from_edges(
            3,
            vec![(0, 1, 1.0), (1, 2, 2.0)],
        ));
        g.set_node_feats(Tensor::from_vec((0..6).map(|v| v as f32).collect(), [3, 2]).to(feat_device));
        g.set_edge_feats(Tensor::from_vec(vec![1.0, 2.0], [2, 1]).to(feat_device));
        (guard, TContext::with_device(g, compute))
    }

    #[test]
    fn preload_moves_features_to_compute_device() {
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        TSampler::new(2, SamplingStrategy::Recent).sample(&head);
        preload(&ctx, &head, true);
        assert_eq!(head.dstfeat().device(), Device::Accel);
        assert_eq!(head.srcfeat().device(), Device::Accel);
        assert_eq!(head.efeat().device(), Device::Accel);
        // Pool was exercised.
        let (acquired, _) = ctx.pinned_pool().stats();
        assert!(acquired >= 2);
    }

    #[test]
    fn preload_walks_whole_chain() {
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let sampler = TSampler::new(2, SamplingStrategy::Recent);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        sampler.sample(&head);
        let tail = head.next_block();
        sampler.sample(&tail);
        preload(&ctx, &head, true);
        assert_eq!(tail.dstfeat().device(), Device::Accel);
        assert_eq!(tail.srcfeat().device(), Device::Accel);
    }

    #[test]
    fn preload_noop_when_already_on_device() {
        let (_g, ctx) = setup(Device::Host, Device::Host);
        let head = TBlock::new(&ctx, 0, vec![1], vec![9.0]);
        let before = tgl_device::stats().transfer_count;
        preload(&ctx, &head, true);
        assert_eq!(tgl_device::stats().transfer_count, before);
    }

    #[test]
    fn pinned_transfers_use_pinned_kind() {
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = TBlock::new(&ctx, 0, vec![0, 1, 2], vec![9.0, 9.0, 9.0]);
        let before = tgl_device::stats();
        preload(&ctx, &head, true);
        let after = tgl_device::stats();
        assert!(after.h2d_bytes > before.h2d_bytes);
    }
}
