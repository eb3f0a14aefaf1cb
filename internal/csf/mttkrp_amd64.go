package csf

import "repro/internal/tensor"

// fibersAVX2 adds columns [0, r&^7) of u(ids[f],:) ⊙ Σ_leaf val·U(leaf,:)
// over fibers f of [lo, hi) — leaves [ptr[f], ptr[f+1]) of b, rows rows
// in u — into dst, as fibers does, and returns hi — or the first fiber
// whose row or leaf range, or one of whose leaves' rows, does not fit, of
// which it writes nothing. hi < len(ptr), hi ≤ len(ids), len(dst) ≥ r,
// 8 ≤ r ≤ 2^16 and len(b.kid) == len(b.vals) must hold.
//
//go:noescape
func fibersAVX2(b *treeBody, ptr []int64, ids []tensor.Index, u []tensor.Value, rows int, dst []tensor.Value, r, lo, hi int) int

// chainsAVX2 adds columns [0, r&^7) of u(ids[n],:) ⊙ Σ_f w_f ⊙ (v_f·a_f)
// over nodes n of [lo, hi) — fibers [ptr[n], ptr[n+1]) of b, one leaf
// each — into dst, as chains does, and returns hi — or the first node that
// fails the single-leaf test, or whose row, fiber range, leaf range or one
// of whose fibers' or leaves' rows does not fit, of which it writes
// nothing. The preconditions are fibersAVX2's.
//
//go:noescape
func chainsAVX2(b *treeBody, ptr []int64, ids []tensor.Index, u []tensor.Value, rows int, dst []tensor.Value, r, lo, hi int) int
