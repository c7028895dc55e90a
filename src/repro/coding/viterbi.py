"""Viterbi decoding: a readable oracle and a butterfly trellis.

Mirrors the oracle/compiled split of :mod:`repro.core`: the decoder
owns two datapaths over the same trellis tables and the fast one is
**bit-identical** to the slow one, ties, ``±inf`` and NaN included:

* :meth:`ViterbiDecoder.decode_reference` — the per-step, per-state
  add-compare-select walk, written for readability; the correctness
  oracle.
* :meth:`ViterbiDecoder.decode` — the butterfly datapath, with an
  optional leading batch axis so a whole burst of independent blocks
  (one per OFDM symbol) decodes in one pass.  Three sub-phases:

  - *branch metrics*: a rate-1/n branch metric is one of only ``2^n``
    sign patterns correlated with the step's LLRs, so each step gets
    just the distinct sums (same products, summed in the reference's
    order), and a table derived from the **live** sign table at call
    time expands them to every ``(state, branch)`` in bounded
    time-chunks — memory no longer grows with ``steps × blocks``;
  - *ACS*: states ``j`` and ``j + S/2`` share the predecessors ``2j``
    and ``2j + 1``, so both read the same ``metrics.reshape(B, S/2, 2)``
    view — no predecessor gather — with the ``S/2``-wide state column
    innermost.  One chunk buffer, refilled per time-chunk with the
    expanded branch metrics, takes each step's candidates in place.
    When every branch sum of the burst is finite, a step is two ufunc
    calls (``add``, then ``maximum(cand1, cand0)`` into the metrics)
    and one ``greater`` over the chunk's stored candidates writes all
    its decisions; otherwise each step runs the select itself
    (``add``, ``greater``, a copy and a masked ``copyto``);
  - *traceback*: one predecessor table ``((s << 1) & mask) | decision``
    (``uint8`` up to 256 states, wider above) built in a single
    vectorised op.  Up to ``_WINDOWED_TRACEBACK_MAX`` blocks × states,
    windows of about ``sqrt(steps)`` steps are chased back all at once
    from every end state, and the window maps are composed backwards
    from state 0 (a two-level parallel prefix over function
    composition), so the walk costs ``O(sqrt(steps))`` numpy calls.
    Above it, where pass 1's S-fold element work costs more, the table
    is walked with one ``add`` and one ``take`` per step; that serial
    walk is the windowed one's oracle.

The select is the reference's ``cand1 if cand1 > cand0 else cand0``: a
branch from the lower-indexed predecessor wins ties, and a NaN
candidate is kept or dropped exactly where the reference keeps or drops
it.  ``np.maximum`` propagates NaN, so it is that select only where no
candidate is NaN, and the mode is chosen once per burst on the branch
sums (not the LLRs: finite LLRs near the float maximum can overflow to
an infinite sum):

* metrics start at ``+0.0`` and ``-inf`` and every update adds a
  finite branch sum, so a metric is finite or ``±inf`` and no
  candidate is NaN, even when metrics overflow;
* in round-to-nearest ``x + y`` is ``-0.0`` only when both are, so no
  metric is ever ``-0.0`` and equal candidates have equal bits;
* on equal inputs ``np.maximum`` returns its second argument, so
  ``maximum(cand1, cand0)`` keeps ``cand0``, the oracle's tie winner.

A burst with any ``±inf`` or NaN branch sum runs the select per step.

Metric convention: inputs are per-bit LLRs with **positive meaning
bit 0** (see :mod:`repro.coding.demap`); the branch metric is the
correlation ``sum((1 - 2*bit) * llr)``, maximised along the path.
Depunctured positions carry LLR 0 and contribute nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .convolutional import ConvolutionalCode

from .. import telemetry

__all__ = ["ViterbiDecoder"]

#: branch-table elements expanded per time-chunk: the size of the one
#: buffer ACS refills with branch metrics and overwrites with
#: candidates (2 MB of float64).
_CHUNK_ELEMENTS = 1 << 18

#: blocks × states up to which the traceback chases every window at
#: once; above it the windowed walk's S-fold element work costs more
#: than the serial walk's two calls per step (DESIGN.md, sweep table).
_WINDOWED_TRACEBACK_MAX = 512


class ViterbiDecoder:
    """Maximum-likelihood decoder for one :class:`ConvolutionalCode`.

    Blocks are assumed **terminated** (the encoder appended ``K - 1``
    tail zeros), so the survivor path is traced back from state 0 and
    the tail bits are dropped from the returned payload.
    """

    def __init__(self, code: ConvolutionalCode):
        self.code = code
        # (states, 2) branch signs per output bit: +1 for bit 0, -1 for
        # bit 1 — the correlation weights of each predecessor branch.
        self._signs = 1.0 - 2.0 * code.branch_outputs.astype(np.float64)
        self._prev = code.prev_states
        self._state_mask = code.n_states - 1

    def decode(self, llr_steps) -> np.ndarray:
        """Butterfly decode of ``(..., steps, n)`` depunctured LLRs.

        Leading axes are independent blocks (the coded chain passes one
        block per OFDM symbol); every add-compare-select runs as column
        ops over all states and all blocks at once.  Returns
        ``(..., steps - memory)`` decoded info bits.
        """
        llr = np.asarray(llr_steps, dtype=np.float64)
        if llr.ndim < 2 or llr.shape[-1] != self.code.n_outputs:
            raise ValueError(
                f"expected (..., steps, {self.code.n_outputs}) LLRs, "
                f"got shape {llr.shape}"
            )
        squeeze = llr.ndim == 2
        if squeeze:
            llr = llr[None]
        lead = llr.shape[:-2]
        steps = llr.shape[-2]
        memory = self.code.memory
        if steps <= memory:
            raise ValueError(
                f"need more than {memory} trellis steps, got {steps}"
            )
        flat = llr.reshape(-1, steps, self.code.n_outputs)
        blocks = flat.shape[0]
        if not blocks:
            return np.zeros(lead + (steps - memory,), dtype=np.uint8)
        n_states = self.code.n_states
        decisions = np.empty((steps, blocks, n_states), dtype=bool)
        with telemetry.span("viterbi.branch-metrics", blocks=blocks,
                            steps=steps, states=n_states):
            sums, table = self._branch_sums(flat)
        with telemetry.span("viterbi.acs", blocks=blocks, steps=steps,
                            states=n_states):
            for _ in self._acs(sums, table, decisions):
                pass
        with telemetry.span("viterbi.traceback", blocks=blocks,
                            steps=steps):
            info = self._traceback(decisions)
        info = info.reshape(lead + (info.shape[-1],))
        return info[0] if squeeze else info

    def _branch_sums(self, flat):
        """Distinct per-step branch metrics and their expansion table.

        Reads the live sign table (fault hooks patch it in place).
        Returns ``(sums, table)``: ``sums[t]`` holds, block-major, the
        correlation of each distinct sign row with step ``t``'s LLRs —
        the reference's products summed in the reference's order — and
        ``table[x, b, h, j]`` is the index into ``sums[t]`` of block
        ``b``'s branch ``x`` into state ``h * S/2 + j``.
        """
        n = self.code.n_outputs
        half = self.code.n_states // 2
        rows, inverse = np.unique(self._signs.reshape(-1, n), axis=0,
                                  return_inverse=True)
        llr = flat.transpose(1, 0, 2)                    # (T, B, n)
        sums = llr[..., 0, None] * rows[:, 0]
        for j in range(1, n):
            sums = sums + llr[..., j, None] * rows[:, j]
        butterfly = inverse.reshape(2, half, 2).transpose(2, 0, 1)
        offsets = np.arange(flat.shape[0]) * len(rows)
        table = butterfly[:, None] + offsets[None, :, None, None]
        return sums.reshape(len(sums), -1), table

    def _acs(self, sums, table, decisions, chunk=None):
        """The butterfly add-compare-select, one time-chunk per yield.

        Writes each step's survivor choices into ``decisions``
        (``(steps, blocks, states)`` bool) and yields ``(decisions[t0:t1],
        metrics)`` after each chunk of steps: the chunk's decisions and
        the path metrics after its last step, ``(blocks, states)`` in
        natural state order (one buffer, valid until the next yield).
        ``chunk=1`` steps one trellis step per yield, the seam
        :func:`repro.verify.coexec_viterbi` runs in lockstep.
        """
        steps, blocks, n_states = decisions.shape
        half = n_states // 2
        if chunk is None:
            chunk = max(1, _CHUNK_ELEMENTS // table.size)
        # rows[t, x, b, h, j]: branch x into state h*half + j of block b
        # at step t0 + t, overwritten in place by that branch's candidate.
        # Each row's views are built once, not once per step.
        rows = np.empty((min(chunk, steps),) + table.shape)
        views = [(row, row[0], row[1]) for row in rows]
        metrics = np.full((blocks, n_states), -np.inf)
        metrics[:, 0] = 0.0  # every block starts in state 0
        # pred[x, b, 0, j]: the metric of predecessor 2j + x, shared by
        # states j and half + j (no gather).
        pred = metrics.reshape(blocks, half, 2).transpose(2, 0, 1)[:, :, None]
        after = metrics.reshape(blocks, 2, half)
        chosen = decisions.reshape(steps, blocks, 2, half)
        # With every branch sum finite no candidate is NaN, and there the
        # select equals np.maximum (module docstring).
        finite = bool(np.isfinite(sums).all())
        for t0 in range(0, steps, chunk):
            dec = chosen[t0:t0 + chunk]
            # Every index is in range, and "clip" lets take write into
            # the buffer directly ("raise" buffers its output).
            cand = sums[t0:t0 + chunk].take(table, axis=1,
                                             out=rows[:len(dec)], mode="clip")
            if finite:
                for row, c0, c1 in views[:len(dec)]:
                    np.add(pred, row, out=row)
                    np.maximum(c1, c0, out=after)
                np.greater(cand[:, 1], cand[:, 0], out=dec)
            else:
                for (row, c0, c1), pick in zip(views, dec):
                    np.add(pred, row, out=row)
                    np.greater(c1, c0, out=pick)
                    np.copyto(after, c0)
                    np.copyto(after, c1, where=pick)
            yield decisions[t0:t0 + len(dec)], metrics

    def _traceback(self, decisions):
        """``(blocks, steps - memory)`` info bits from ``(steps, blocks,
        states)`` survivor decisions.

        Terminated blocks end in state 0.  Step ``t``'s predecessor of
        state ``s`` is ``((s << 1) & mask) | decisions[t, b, s]``; the
        survivor is chased back from state 0 through those tables in
        windows of about ``sqrt(steps)`` steps
        (:meth:`_traceback_windowed`) up to ``_WINDOWED_TRACEBACK_MAX``
        blocks × states, and one step at a time above it
        (:meth:`_traceback_serial`).  Both give the same bits.
        """
        steps, blocks, n_states = decisions.shape
        if blocks * n_states > _WINDOWED_TRACEBACK_MAX:
            return self._traceback_serial(decisions)
        return self._traceback_windowed(decisions,
                                        max(1, math.isqrt(steps)))

    def _predecessors(self, decisions, out=None):
        """Every step's predecessor of every state, in one vectorised
        op: ``(steps, blocks, states)``, ``uint8`` up to 256 states."""
        dtype = np.min_scalar_type(self._state_mask)
        base = (np.arange(self.code.n_states, dtype=dtype) << 1) \
            & self._state_mask
        return np.bitwise_or(base, decisions.view(np.uint8), out=out)

    def _traceback_serial(self, decisions):
        """The survivor walk one step at a time: one ``add`` and one
        ``take`` per step over all blocks."""
        steps, blocks, n_states = decisions.shape
        memory = self.code.memory
        pred = self._predecessors(decisions).reshape(steps, -1)
        # after[t]: each block's survivor state after step t, whose MSB
        # is step t's info bit.
        after = np.zeros((steps, blocks), dtype=pred.dtype)
        offsets = np.arange(blocks) * n_states
        index = np.empty_like(offsets)
        for t in range(steps - 1, 0, -1):
            np.add(offsets, after[t], out=index)
            pred[t].take(index, out=after[t - 1], mode="clip")
        return (after[:steps - memory].T >> (memory - 1)).astype(np.uint8)

    def _traceback_windowed(self, decisions, length):
        """The survivor walk over windows of ``length`` steps, every
        window at once, in three passes:

        1. chase each window back from each of its S possible end
           states: one ``add`` and one ``take`` per window step over
           windows × blocks × states lanes, which leaves each window's
           map from its end state to the state before it;
        2. compose those maps backwards from state 0, one window at a
           time, which fixes every window's end state;
        3. chase the one survivor per window back from that end state:
           one ``add`` and one ``take`` per window step over windows ×
           blocks lanes.

        About ``4 * length + 2 * steps / length`` numpy calls, against
        ``2 * steps`` for :meth:`_traceback_serial`, for S times its
        element work in pass 1.
        """
        steps, blocks, n_states = decisions.shape
        memory = self.code.memory
        width = -(-steps // length)
        row = blocks * n_states
        # table[t]: step t's predecessors.  The pad steps past the last
        # one send every state to 0, the terminated end state.
        table = np.empty((width * length, blocks, n_states),
                         dtype=np.min_scalar_type(self._state_mask))
        self._predecessors(decisions, out=table[:steps])
        table[steps:] = 0
        # Row w * length + l of block b starts at lanes[w, b] in
        # flat[l * row:], so one take serves step l of every window.
        flat = table.reshape(-1)
        lanes = (np.arange(width)[:, None] * (length * blocks)
                 + np.arange(blocks)) * n_states
        # 1. states[w, b, s]: the state before window w's step l, if
        # the window ends in state s.
        states = np.empty((width, blocks, n_states), dtype=table.dtype)
        states[...] = np.arange(n_states, dtype=table.dtype)
        # Materialised rather than broadcast: the contiguous add ran
        # 7-13% faster on the traceback's larger bursts.
        fan = np.repeat(lanes[..., None], n_states, axis=-1)
        index = np.empty_like(fan)
        for l in range(length - 1, -1, -1):
            np.add(fan, states, out=index)
            flat[l * row:].take(index, out=states, mode="clip")
        # 2. ends[w, b]: block b's survivor state after window w.
        ends = np.zeros((width, blocks), dtype=table.dtype)
        entry = states.reshape(width, -1)
        offsets = np.arange(blocks) * n_states
        pick = np.empty_like(offsets)
        for w in range(width - 1, 0, -1):
            np.add(offsets, ends[w], out=pick)
            entry[w].take(pick, out=ends[w - 1], mode="clip")
        # 3. after[l, w, b]: the survivor state after step
        # w * length + l.
        after = np.empty((length, width, blocks), dtype=table.dtype)
        after[-1] = ends
        index = np.empty_like(lanes)
        for l in range(length - 1, 0, -1):
            np.add(lanes, after[l], out=index)
            flat[l * row:].take(index, out=after[l - 1], mode="clip")
        path = after.transpose(1, 0, 2).reshape(-1, blocks)
        return (path[:steps - memory].T >> (memory - 1)).astype(np.uint8)

    def decode_reference(self, llr_steps) -> np.ndarray:
        """The per-step, per-state oracle walk (readable specification).

        Same metric convention, float operation order and tie rule as
        :meth:`decode`; batches are decoded row by row.
        """
        llr = np.asarray(llr_steps, dtype=np.float64)
        if llr.ndim > 2:
            flat = llr.reshape(-1, llr.shape[-2], llr.shape[-1])
            if not len(flat):
                return np.zeros(
                    llr.shape[:-2] + (llr.shape[-2] - self.code.memory,),
                    dtype=np.uint8,
                )
            rows = [self.decode_reference(block) for block in flat]
            return np.stack(rows).reshape(
                llr.shape[:-2] + (rows[0].shape[-1],)
            )
        steps = llr.shape[0]
        n_states = self.code.n_states
        metrics = [0.0] + [-np.inf] * (n_states - 1)
        decisions = []
        for t in range(steps):
            step_llr = llr[t]
            new_metrics = [None] * n_states
            chosen = [0] * n_states
            for state in range(n_states):
                cand = []
                for x in (0, 1):
                    branch = self._signs[state, x, 0] * step_llr[0]
                    for j in range(1, self.code.n_outputs):
                        branch = branch + (
                            self._signs[state, x, j] * step_llr[j]
                        )
                    cand.append(metrics[self._prev[state, x]] + branch)
                pick = 1 if cand[1] > cand[0] else 0
                chosen[state] = pick
                new_metrics[state] = cand[pick]
            metrics = new_metrics
            decisions.append(chosen)
        state = 0
        bits = [0] * steps
        shift = self.code.memory - 1
        for t in range(steps - 1, -1, -1):
            bits[t] = state >> shift
            state = ((state << 1) & self._state_mask) | decisions[t][state]
        return np.asarray(bits[:steps - self.code.memory], dtype=np.uint8)
