"""Property tests: the segment-gather decode kernel matches the reference.

:func:`repro.attention.decode.decode_attention` visits only each query's
own sequence, through a per-shard segment index, where the reference
masks every other sequence's keys out of a dense ``[Tq, Tk]`` score
matrix. The contract is the library's usual one (see
``test_prop_flash_fused.py``): ``atol=1e-12, rtol=0`` in float64 and an
*identical* ``LSE = -inf`` / zero-output structure. The sweep covers GQA
ratios, ``PAD_SEQ`` query and key rows, interleaved (unsorted) key
sequence ids, queries whose sequence is absent from the shard, empty
shards, and a windowed ``mask_fn``; float32 compute is checked at float32
resolution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.decode import decode_attention, kv_segments
from repro.attention.masks import PAD_SEQ
from repro.attention.reference import reference_attention_with_lse
from repro.attention.windowed import windowed_attention_mask_fn
from repro.core.ring_skip import kv_reach

SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def decode_case(draw):
    """One ring step's decode partial: a padded query payload against one
    rank's resident KV shard."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_kv = draw(st.sampled_from([1, 2]))
    ratio = draw(st.sampled_from([1, 4, 8]))
    nh = n_kv * ratio
    dh = draw(st.sampled_from([4, 8]))
    n_seqs = draw(st.integers(1, 6))
    tq = draw(st.integers(0, 8))
    tk = draw(st.integers(0, 60))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((tq, nh, dh))
    k = rng.standard_normal((tk, n_kv, dh))
    v = rng.standard_normal((tk, n_kv, dh))
    # keys of every sequence (and padding) interleaved in storage order
    k_seq = rng.integers(PAD_SEQ, n_seqs, tk)
    k_pos = rng.integers(0, 50, tk)
    # queries: resident sequences, PAD_SEQ padding, and one sequence id
    # the shard never holds
    q_seq = rng.integers(PAD_SEQ, n_seqs + 1, tq)
    q_pos = rng.integers(0, 60, tq)
    mask_fn = (
        windowed_attention_mask_fn(
            int(rng.integers(1, 20)), sink_tokens=int(rng.integers(0, 3))
        )
        if draw(st.booleans())
        else None
    )
    coords = dict(q_pos=q_pos, k_pos=k_pos, q_seq=q_seq, k_seq=k_seq, mask_fn=mask_fn)
    return q, k, v, coords


def _assert_matches(res, ref_out, ref_lse, atol=1e-12):
    np.testing.assert_allclose(res.out, ref_out, atol=atol, rtol=0)
    np.testing.assert_allclose(res.lse, ref_lse, atol=atol, rtol=0)
    empty = np.isneginf(ref_lse)
    assert np.array_equal(np.isneginf(res.lse), empty)
    assert np.all(res.out[empty] == 0.0)
    assert res.out.dtype == np.float64 and res.lse.dtype == np.float64


class TestDecodeKernelMatchesReference:
    @given(decode_case())
    @settings(**SETTINGS)
    def test_matches_reference(self, case):
        q, k, v, coords = case
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        res = decode_attention(q, k, v, **coords)
        _assert_matches(res, ref_out, ref_lse)

    @given(decode_case())
    @settings(**SETTINGS)
    def test_shared_segment_index_is_pure_reuse(self, case):
        """The ring builds the index once per shard and reuses it at every
        ring step; a prebuilt index gives the bit-identical result."""
        q, k, v, coords = case
        a = decode_attention(q, k, v, **coords)
        b = decode_attention(q, k, v, segments=kv_segments(coords["k_seq"]), **coords)
        assert np.array_equal(a.out, b.out)
        assert np.array_equal(a.lse, b.lse)

    @given(decode_case())
    @settings(**SETTINGS)
    def test_fp32_compute_fp64_merge(self, case):
        q, k, v, coords = case
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        res = decode_attention(q, k, v, compute_dtype=np.float32, **coords)
        _assert_matches(res, ref_out, ref_lse, atol=1e-4)

    @given(decode_case())
    @settings(**SETTINGS)
    def test_segment_reach_equals_rescan(self, case):
        """The ring-skip KV summary read off the segment index equals the
        per-sequence rescan it replaces."""
        _, _, _, coords = case
        seg = kv_segments(coords["k_seq"])
        assert seg.min_positions(coords["k_pos"]) == kv_reach(
            coords["k_pos"], coords["k_seq"]
        )
