//! Channel collectives over the worker fabric, mirroring the CM-5 runtime
//! primitives the machine model prices: the router (irregular sends), CSHIFT
//! (grid-neighbor shifts with circular wrap), and the tree-structured
//! combine/spread used for levels embedded on fewer VUs than boxes
//! (Multigrid embedding).
//!
//! The *plans* — who exchanges which cells with whom — live in
//! [`crate::schedule`], where the static analyzer reads them too; this
//! module only moves the data. Each collective's send/receive sequence is
//! exactly the lowering `schedule::Step::ops_for` describes for its step
//! kind: that correspondence is what lets `fmm-verify` prove properties of
//! the program these functions then execute.
//!
//! Determinism rules shared by every collective here:
//! * every rank calls the collective at the same point of the program, and
//!   each call burns exactly one tag on every rank;
//! * all sends of a phase are posted before the receives that could block
//!   on a peer, so no cyclic wait exists (the binomial gather interleaves
//!   per stage, but its dependency order is a tree — see the deadlock pass
//!   in `fmm-verify`);
//! * receive order is fixed by rank arithmetic, never by arrival order.

use std::collections::BTreeMap;

use fmm_machine::BlockLayout;
use fmm_tree::{BoxCoord, Exchange};

use crate::fabric::WorkerCtx;
use crate::schedule::{cell_index, halo_axis_plan, particle_axis_plan, CommProgram};

/// Personalized all-to-all (the router): worker `w` receives
/// `outgoing[w]`, concatenated in source-rank order. The model prices the
/// sort scatter as one aggregate router operation, so the caller counts
/// the op; bytes are counted here per sending worker.
pub fn all_to_allv(ctx: &mut WorkerCtx, outgoing: Vec<Vec<f64>>) -> Vec<f64> {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    let mut mine = Vec::new();
    let mut chunks: Vec<Option<Vec<f64>>> = (0..p).map(|_| None).collect();
    for (w, chunk) in outgoing.into_iter().enumerate() {
        if w == ctx.rank {
            ctx.counters.add_local_words(chunk.len() as u64);
            chunks[w] = Some(chunk);
        } else {
            ctx.counters.add_words(chunk.len() as u64);
            ctx.send(w, tag, chunk);
        }
    }
    for (w, slot) in chunks.iter_mut().enumerate() {
        if w != ctx.rank {
            *slot = Some(ctx.recv(w, tag));
        }
    }
    for chunk in chunks.into_iter().flatten() {
        mine.extend_from_slice(&chunk);
    }
    mine
}

/// Tree-structured combine: bring the owned `(box index, k samples)` chunks
/// of a distributed level to rank 0, which writes them into its full-size
/// `buf`. Binomial: stage `s` halves the set of holders, so the total
/// box transmissions match the model's `gather_hops(p)` accounting.
pub fn gather_level_to_root(ctx: &mut WorkerCtx, buf: &mut [f64], l: u32, k: usize) {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    if p == 1 {
        return;
    }
    let n = 1usize << l;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let mut held = Vec::with_capacity(lay.boxes_per_vu() * (k + 1));
    for li in 0..lay.boxes_per_vu() {
        let g = lay.global_of(ctx.rank, li);
        let bi = cell_index(g, n);
        held.push(bi as f64);
        held.extend_from_slice(&buf[bi * k..(bi + 1) * k]);
    }
    let stages = p.trailing_zeros();
    for s in 0..stages {
        let bit = 1usize << s;
        if !ctx.rank.is_multiple_of(bit) {
            continue; // retired in an earlier stage
        }
        if ctx.rank & bit != 0 {
            // Payload words are the k-sample rows; the per-box index is
            // envelope metadata, like a router packet header.
            ctx.counters.add_messages(1);
            ctx.counters.add_words((held.len() / (k + 1) * k) as u64);
            let data = std::mem::take(&mut held);
            ctx.send(ctx.rank - bit, tag, data);
        } else if ctx.rank + bit < p {
            let data = ctx.recv(ctx.rank + bit, tag);
            held.extend_from_slice(&data);
        }
    }
    if ctx.rank == 0 {
        for ch in held.chunks_exact(k + 1) {
            let bi = ch[0] as usize;
            buf[bi * k..(bi + 1) * k].copy_from_slice(&ch[1..]);
        }
    }
}

/// Tree-structured spread: rank 0's `buf` replaces every other rank's.
/// Mirror image of [`gather_level_to_root`]; the model prices `log2 p`
/// broadcast stages, counted here via `count_op` (rank 0 sends in every
/// stage), with bytes per actual transmission.
pub fn broadcast_from_root(ctx: &mut WorkerCtx, buf: &mut [f64]) {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    if p == 1 {
        return;
    }
    let stages = p.trailing_zeros();
    for s in (0..stages).rev() {
        let bit = 1usize << s;
        let span = bit << 1;
        if ctx.rank.is_multiple_of(span) {
            ctx.count_op(1);
            ctx.counters.add_words(buf.len() as u64);
            ctx.send(ctx.rank + bit, tag, buf.to_vec());
        } else if ctx.rank.is_multiple_of(bit) {
            let data = ctx.recv(ctx.rank - bit, tag);
            buf.copy_from_slice(&data);
        }
    }
}

/// One axis phase of the circular-wrap halo exchange of a distributed
/// far-field level: after all three phases (x, y, z — the executor runs
/// them in the program's step order), every rank's full-size `level_buf`
/// holds true values for all boxes within `g` of its subgrid (wrapped
/// coordinates alias the true wrapped box, which consumers never read —
/// they bound-check first, as the CM CSHIFT code masks wrapped elements).
pub fn halo_exchange_axis(
    ctx: &mut WorkerCtx,
    level_buf: &mut [f64],
    l: u32,
    axis: usize,
    g: usize,
    k: usize,
) {
    let n = 1usize << l;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let my = ctx.coords();
    let tag = ctx.tags.fresh();
    // Post sends: serve every rank along this axis whose plan names me.
    for other in 0..ctx.grid.dims[axis] {
        if other == my[axis] {
            continue;
        }
        let mut dst_c = my;
        dst_c[axis] = other;
        let dst = ctx.grid.rank(dst_c);
        let dplan = halo_axis_plan(&lay, dst_c, axis, g, n);
        if let Some(cells) = dplan.get(&ctx.rank) {
            let mut data = Vec::with_capacity(cells.len() * k);
            for &c in cells {
                data.extend_from_slice(&level_buf[c * k..(c + 1) * k]);
            }
            ctx.counters.add_words(data.len() as u64);
            ctx.send(dst, tag, data);
        }
    }
    // Receive, in plan (ascending source-rank) order.
    let plan = halo_axis_plan(&lay, my, axis, g, n);
    for (src, cells) in &plan {
        if *src == ctx.rank {
            // Wrap aliased back onto my own subgrid: the true values
            // are already in place, only local index motion.
            ctx.counters.add_local_words((cells.len() * k) as u64);
            continue;
        }
        let data = ctx.recv(*src, tag);
        debug_assert_eq!(data.len(), cells.len() * k);
        for (i, &c) in cells.iter().enumerate() {
            level_buf[c * k..(c + 1) * k].copy_from_slice(&data[i * k..(i + 1) * k]);
        }
    }
}

/// Execute one [`Exchange`] plan over the k-sample rows of a full-size
/// level buffer: send every owned row the plan names (row-major cell
/// order, one message per destination), then receive and store peers'
/// rows at their cell indices. Both ends walk the same plan, so no
/// metadata travels; bytes are exactly `rows × k` words, which is what
/// the partitioned budget predicts.
pub fn exchange_rows(ctx: &mut WorkerCtx, buf: &mut [f64], ex: &Exchange, k: usize) {
    let tag = ctx.tags.fresh();
    for (dst, cells) in &ex.sends[ctx.rank] {
        let mut data = Vec::with_capacity(cells.len() * k);
        for &c in cells {
            data.extend_from_slice(&buf[c * k..(c + 1) * k]);
        }
        ctx.counters.add_words(data.len() as u64);
        ctx.send(*dst, tag, data);
    }
    for (src, cells) in &ex.recvs[ctx.rank] {
        let data = ctx.recv(*src, tag);
        debug_assert_eq!(data.len(), cells.len() * k);
        for (i, &c) in cells.iter().enumerate() {
            buf[c * k..(c + 1) * k].copy_from_slice(&data[i * k..(i + 1) * k]);
        }
    }
}

/// Particles of one leaf cell, in the owner's sorted (= serial) order.
#[derive(Default, Clone)]
pub struct CellParticles {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
    pub qs: Vec<f64>,
}

impl CellParticles {
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Serialize `cells` as `[count, xs.., ys.., zs.., qs..]` records, in
/// order: owned cells from `own`, forwarded ones from `store`. Returns the
/// message and its payload words (the count is envelope metadata).
fn pack_cells(
    cells: &[usize],
    own: &impl Fn(usize) -> Option<CellParticles>,
    store: &BTreeMap<usize, CellParticles>,
) -> (Vec<f64>, u64) {
    let mut data = Vec::new();
    let mut payload = 0u64;
    for &c in cells {
        let cell = own(c)
            .or_else(|| store.get(&c).cloned())
            .unwrap_or_default();
        data.push(cell.len() as f64);
        payload += 4 * cell.len() as u64;
        data.extend_from_slice(&cell.xs);
        data.extend_from_slice(&cell.ys);
        data.extend_from_slice(&cell.zs);
        data.extend_from_slice(&cell.qs);
    }
    (data, payload)
}

/// Inverse of [`pack_cells`]: store each received cell under its index.
fn unpack_cells(data: &[f64], cells: &[usize], store: &mut BTreeMap<usize, CellParticles>) {
    let mut i = 0usize;
    for &c in cells {
        let cnt = data[i] as usize;
        i += 1;
        let mut take = || {
            let v = data[i..i + cnt].to_vec();
            i += cnt;
            v
        };
        let (xs, ys, zs, qs) = (take(), take(), take(), take());
        store.insert(c, CellParticles { xs, ys, zs, qs });
    }
    debug_assert_eq!(i, data.len());
}

/// One axis phase of the halo exchange of leaf *particles* (positions +
/// charges) to ghost depth `g`, without wrap — the forces near field is
/// target-centric and only reads true in-domain neighbors. `own` serves a
/// cell I own; received cells accumulate in `store` and are re-served in
/// later phases (corner forwarding).
pub fn particle_halo_axis(
    ctx: &mut WorkerCtx,
    depth: u32,
    g: usize,
    axis: usize,
    own: &impl Fn(usize) -> Option<CellParticles>,
    store: &mut BTreeMap<usize, CellParticles>,
) {
    let n = 1usize << depth;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let my = ctx.coords();
    let tag = ctx.tags.fresh();
    for other in 0..ctx.grid.dims[axis] {
        if other == my[axis] {
            continue;
        }
        let mut dst_c = my;
        dst_c[axis] = other;
        let dst = ctx.grid.rank(dst_c);
        let dplan = particle_axis_plan(&lay, dst_c, axis, g, n);
        if let Some(cells) = dplan.get(&ctx.rank) {
            let (data, payload) = pack_cells(cells, own, store);
            ctx.counters.add_words(payload);
            ctx.send(dst, tag, data);
        }
    }
    let plan = particle_axis_plan(&lay, my, axis, g, n);
    for (src, cells) in &plan {
        let data = ctx.recv(*src, tag);
        unpack_cells(&data, cells, store);
    }
}

/// One-shot partitioned particle halo (forces near field): every cross-
/// owner neighbour cell of the [`fmm_tree::particle_halo`] plan moves in a
/// single exchange, in the record layout of [`particle_halo_axis`].
pub fn particle_exchange(
    ctx: &mut WorkerCtx,
    ex: &Exchange,
    own: &impl Fn(usize) -> Option<CellParticles>,
    store: &mut BTreeMap<usize, CellParticles>,
) {
    let tag = ctx.tags.fresh();
    for (dst, cells) in &ex.sends[ctx.rank] {
        let (data, payload) = pack_cells(cells, own, store);
        ctx.counters.add_words(payload);
        ctx.send(*dst, tag, data);
    }
    for (src, cells) in &ex.recvs[ctx.rank] {
        let data = ctx.recv(*src, tag);
        unpack_cells(&data, cells, store);
    }
}

/// One travelling slot of the symmetric near-field sweep: the particles
/// and partial accumulator of origin box `origin`, currently visiting some
/// other leaf box.
pub struct Slot {
    pub origin: usize,
    pub cell: CellParticles,
    pub acc: Vec<f64>,
}

/// One unit shift of the travelling slots: every slot's position moves by
/// `pos_delta` (±1) along `axis` with circular wrap. Slots whose new
/// position another rank owns are serialized to it; the rest re-key
/// locally. `slots` is keyed by current position (global leaf index).
///
/// The peers come from the program's ownership
/// ([`CommProgram::slot_peers`]): under the block layout this is the
/// paper's CSHIFT to the ring partner (one message, possibly empty);
/// under a Morton partition it is the hop's precomputed route. Either way
/// each message carries its slots in ascending source position as
/// `[npos, origin, cnt, xs, ys, zs, qs, acc]` records.
pub fn shift_slots(
    ctx: &mut WorkerCtx,
    slots: &mut BTreeMap<usize, Slot>,
    axis: usize,
    pos_delta: i32,
    prog: &CommProgram,
) {
    let tag = ctx.tags.fresh();
    let n = 1usize << prog.depth;
    let (dsts, srcs) = prog.slot_peers(ctx.rank, axis, pos_delta);
    let mut out: Vec<(usize, Vec<f64>, u64)> =
        dsts.into_iter().map(|d| (d, Vec::new(), 0)).collect();
    for (pos, slot) in std::mem::take(slots) {
        let mut g = [pos % n, (pos / n) % n, pos / (n * n)];
        g[axis] = (g[axis] as i64 + pos_delta as i64).rem_euclid(n as i64) as usize;
        let npos = cell_index(g, n);
        let [x, y, z] = g.map(|c| c as u32);
        let owner = prog.owner_of(&BoxCoord {
            level: prog.depth,
            x,
            y,
            z,
        });
        let cnt = slot.cell.len();
        if owner == ctx.rank {
            ctx.counters.add_local_words(5 * cnt as u64);
            slots.insert(npos, slot);
            continue;
        }
        let (_, data, words) = out
            .iter_mut()
            .find(|(d, ..)| *d == owner)
            .expect("a departing slot travels to a scheduled peer");
        *words += 5 * cnt as u64;
        data.extend_from_slice(&[npos as f64, slot.origin as f64, cnt as f64]);
        data.extend_from_slice(&slot.cell.xs);
        data.extend_from_slice(&slot.cell.ys);
        data.extend_from_slice(&slot.cell.zs);
        data.extend_from_slice(&slot.cell.qs);
        data.extend_from_slice(&slot.acc);
    }
    for (dst, data, words) in out {
        ctx.counters.add_words(words);
        ctx.send(dst, tag, data);
    }
    for src in srcs {
        let data = ctx.recv(src, tag);
        let mut i = 0usize;
        while i < data.len() {
            let (npos, origin, cnt) =
                (data[i] as usize, data[i + 1] as usize, data[i + 2] as usize);
            i += 3;
            let mut take = || {
                let v = data[i..i + cnt].to_vec();
                i += cnt;
                v
            };
            let (xs, ys, zs, qs, acc) = (take(), take(), take(), take(), take());
            let cell = CellParticles { xs, ys, zs, qs };
            slots.insert(npos, Slot { origin, cell, acc });
        }
    }
}
