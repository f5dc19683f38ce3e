package core

import (
	"harpgbdt/internal/histogram"
	"harpgbdt/internal/invariant"
	"harpgbdt/internal/obs"
	"harpgbdt/internal/profile"
)

// binRange is one bin-block of the MP kernel.
type binRange struct {
	lo, hi uint8
}

// fullBinRange covers every real bin and, like every range that ends at
// 255 (the missing sentinel), the missing-value cell.
var fullBinRange = binRange{0, 255}

// binRanges expands the configured bin block size into task ranges.
func (b *Builder) binRanges() []binRange {
	blk := b.cfg.BinBlockSize
	if blk <= 0 || blk >= 255 {
		return []binRange{fullBinRange}
	}
	var out []binRange
	for lo := 0; lo < 255; lo += blk {
		hi := lo + blk
		if hi > 255 {
			hi = 255
		}
		out = append(out, binRange{uint8(lo), uint8(hi)})
	}
	return out
}

// buildHistBatch builds the histograms of the listed nodes using the
// configured mode's kernel. In SYNC (and the ASYNC warm-up phase) the
// kernel is chosen per batch: few nodes => DP (row parallelism), many
// nodes => MP (block parallelism).
func (b *Builder) buildHistBatch(st *buildState, ids []int32) {
	if len(ids) == 0 {
		return
	}
	defer b.beginPhase(profile.BuildHist, obs.StartSpan("phase", "BuildHist")).end()
	mode := b.cfg.Mode
	if mode == Sync || mode == Async {
		// Mixed mode (DP, MP, DP): model parallelism needs enough
		// ⟨node, feature block⟩ tasks to feed every worker; below that
		// (the beginning phase: few nodes, many rows each) data
		// parallelism's row blocks keep the workers busy.
		if len(ids)*b.blocks.NumBlocks() < b.pool.Workers() {
			mode = DP
		} else {
			mode = MP
		}
	}
	if mode == DP {
		b.buildHistDP(st, ids)
	} else {
		b.buildHistMP(st, ids)
	}
	if invariant.Enabled {
		for _, id := range ids {
			invariant.HistFeatureTotals(st.nodes[id].hist, st.nodes[id].sum, "core.buildHistBatch")
		}
	}
}

// accumulate adds rows [lo, hi) of node state ns into h for feature block fb
// and bin range br, selecting the MemBuf / gathered-gradient kernel variant.
func (b *Builder) accumulate(h *histogram.Hist, st *buildState, ns *nodeState, lo, hi, fb int, br binRange) {
	fLo, fHi, panel := b.blocks.Block(fb)
	w := fHi - fLo
	if invariant.Enabled {
		invariant.PanelBins(panel, w, fLo, ns.rows, lo, hi, b.layout, "core.accumulate")
	}
	filtered := br.lo > 0 || br.hi < 255
	if ns.rows.Mem != nil {
		mb := ns.rows.Mem[lo:hi]
		if filtered {
			h.AccumulatePanelRowsBinRange(panel, w, mb, fLo, fHi, br.lo, br.hi)
		} else {
			h.AccumulatePanelRows(panel, w, mb, fLo, fHi)
		}
		return
	}
	rows := ns.rows.Rows[lo:hi]
	if filtered {
		h.AccumulatePanelRowsGradBinRange(panel, w, rows, st.grad, fLo, fHi, br.lo, br.hi)
	} else {
		h.AccumulatePanelRowsGrad(panel, w, rows, st.grad, fLo, fHi)
	}
}

// fill builds block (fb, br) of ns's histogram from all of the node's rows.
// A pooled histogram holds what its last owner left, so the cells are
// zeroed first — here, by the task about to write them, not up front by
// whoever took the histogram from the pool, and only those in its cell set.
func (b *Builder) fill(st *buildState, ns *nodeState, fb int, br binRange) {
	fLo, fHi, panel := b.blocks.Block(fb)
	if invariant.Enabled {
		invariant.HistCellSet(ns.hist, fLo, fHi, "core.fill")
	}
	ns.hist.ResetBins(fLo, fHi, br.lo, br.hi)
	b.accumulate(ns.hist, st, ns, 0, ns.rows.Len(), fb, br)
	if br == fullBinRange {
		// A node with fewer rows than a feature has bins: its cell set is
		// the cells the rows hit, not every writable cell.
		if ns.rows.Mem != nil {
			ns.hist.CoverMemBuf(panel, fHi-fLo, ns.rows.Mem, fLo, fHi)
		} else {
			ns.hist.CoverRows(panel, fHi-fLo, ns.rows.Rows, fLo, fHi)
		}
	}
}

// buildHistDP is the data-parallel kernel: per-worker histogram replicas
// accumulated over ⟨node, row block, feature block⟩ tasks, then reduced.
// node_blk_size nodes share one parallel region, so the region (barrier)
// count is ceil(len(ids)/node_blk_size) accumulation regions plus as many
// reduction regions. Worker 0's replica is the node's own histogram: the
// reduce adds the others to it in worker order, which sums what adding a
// zeroed replica 0 first did (+0 + x == x), with one slab fewer per node.
func (b *Builder) buildHistDP(st *buildState, ids []int32) {
	nodeBlk := b.cfg.NodeBlockSize
	workers := b.pool.Workers()
	rowBlk := b.cfg.RowBlockSize
	if rowBlk <= 0 {
		rowBlk = (b.ds.NumRows() + workers - 1) / workers
	}
	nb := b.blocks.NumBlocks()
	cells := b.layout.Cells()
	for g := 0; g < len(ids); g += nodeBlk {
		end := g + nodeBlk
		if end > len(ids) {
			end = len(ids)
		}
		group := ids[g:end]
		replicas := make([][]*histogram.Hist, workers)
		for w := range replicas {
			replicas[w] = make([]*histogram.Hist, len(group))
		}
		for gi, id := range group {
			// The reduce target, and worker 0's replica.
			h := b.hpool.Get()
			if invariant.Enabled {
				invariant.HistCellSet(h, 0, b.layout.M, "core.buildHistDP")
			}
			h.Reset()
			st.nodes[id].hist, replicas[0][gi] = h, h
			mBuildHistRows.Add(int64(st.nodes[id].rows.Len()))
		}
		var tasks []func(int)
		for gi, id := range group {
			ns := st.nodes[id]
			nRows := ns.rows.Len()
			for lo := 0; lo < nRows; lo += rowBlk {
				hi := lo + rowBlk
				if hi > nRows {
					hi = nRows
				}
				for fb := 0; fb < nb; fb++ {
					gi, lo, hi, fb, ns := gi, lo, hi, fb, ns
					tasks = append(tasks, func(w int) {
						tsp := obs.StartSpanTID("block-task", "hist-dp", w+1)
						ttm := profile.StartTimer()
						rep := replicas[w][gi]
						if rep == nil {
							rep = b.hpool.Get()
							if invariant.Enabled {
								invariant.HistCellSet(rep, 0, b.layout.M, "core.buildHistDP")
							}
							rep.Reset() // on first touch, by the worker that fills it
							replicas[w][gi] = rep
						}
						b.accumulate(rep, st, ns, lo, hi, fb, fullBinRange)
						mBlockTaskSeconds.Observe(ttm.Elapsed().Seconds())
						tsp.End()
					})
				}
			}
		}
		b.pool.RunTasks(tasks)
		// Replica reduction, parallel over (node, histogram range). The
		// cost of this region grows with the number of nodes — the DP
		// scaling limit of Fig. 11.
		const reduceChunk = 16384
		var rtasks []func(int)
		for gi, id := range group {
			target := st.nodes[id].hist
			for lo := 0; lo < cells; lo += reduceChunk {
				hi := lo + reduceChunk
				if hi > cells {
					hi = cells
				}
				gi, lo, hi, target := gi, lo, hi, target
				rtasks = append(rtasks, func(rw int) {
					tsp := obs.StartSpanTID("block-task", "hist-reduce", rw+1)
					for w := 1; w < workers; w++ {
						if rep := replicas[w][gi]; rep != nil {
							target.AddRange(rep, lo, hi)
						}
					}
					tsp.End()
				})
			}
		}
		b.pool.RunTasks(rtasks)
		for _, reps := range replicas[1:] {
			for _, rep := range reps {
				if rep != nil {
					b.hpool.Put(rep)
				}
			}
		}
	}
}

// buildHistMP is the model-parallel kernel: ⟨node group, feature block, bin
// block⟩ tasks write directly into the owning node's GHSum region, so no
// replicas and no reduction are needed and the whole batch is one parallel
// region. node_blk_size controls task granularity (write-region size versus
// schedulable task count).
func (b *Builder) buildHistMP(st *buildState, ids []int32) {
	nodeBlk := b.cfg.NodeBlockSize
	nb := b.blocks.NumBlocks()
	ranges := b.binRanges()
	for _, id := range ids {
		h := b.hpool.Get()
		if len(ranges) > 1 {
			// The ⟨feature block, bin range⟩ tasks of one node share its
			// features' cell-set words: widen them here, so that the tasks
			// only read them (their clears then visit every writable cell).
			h.MarkWritable(0, b.layout.M)
		}
		st.nodes[id].hist = h
		mBuildHistRows.Add(int64(st.nodes[id].rows.Len()))
	}
	var tasks []func(int)
	for g := 0; g < len(ids); g += nodeBlk {
		end := g + nodeBlk
		if end > len(ids) {
			end = len(ids)
		}
		group := ids[g:end]
		for fb := 0; fb < nb; fb++ {
			for _, br := range ranges {
				group, fb, br := group, fb, br
				tasks = append(tasks, func(w int) {
					tsp := obs.StartSpanTID("block-task", "hist-mp", w+1)
					ttm := profile.StartTimer()
					for _, id := range group {
						b.fill(st, st.nodes[id], fb, br)
					}
					mBlockTaskSeconds.Observe(ttm.Elapsed().Seconds())
					tsp.End()
				})
			}
		}
	}
	b.pool.RunTasks(tasks)
}
