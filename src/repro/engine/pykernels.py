"""Python kernel tier: the kernels of ``ckernels.c``, function for function.

Without a C compiler the batch caches and hierarchy run these kernels
instead of the compiled ones: each picks its module with ``kernels =
ckernels if ckernels.available() else pykernels`` and makes one call.
:func:`run_set_assoc`, :func:`run_victim`, :func:`run_column` and
:func:`run_hierarchy` take the same arguments and return the same results
as their :mod:`repro.engine.ckernels` namesakes, and mutate the same state
arrays in place.  Inside, :func:`_policy` is ``policy_t`` with
``policy_touch``/``policy_victim``, :func:`_level` is ``sa_access``,
:func:`_fa_run` is ``fa_loop`` (the O(1) path of one-set caches, which
:func:`run_set_assoc` takes where :func:`ckernels.set_assoc_path
<repro.engine.ckernels.set_assoc_path>` says ``"fully-assoc"``, as
``repro_fa_run`` does) and the four kernels are the ``repro_*_run`` loops.

Each kernel shifts the batch's addresses to blocks, checks the state
arrays out as flat lists (frame ``way * num_sets + set``, as the C kernels
index them), computes every access's candidate sets from the cache's
placement at entry (:meth:`~repro.engine.index_vec.Placement.sets`, the C
kernels' evaluation in NumPy), runs the batch over them and writes them
back at the end.  Shifts and addresses are checked as in C
(:func:`~repro.engine.ckernels.check_shift`); other arguments are not
validated: the callers build them from their own state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from ..cache.replacement import plru_touch, plru_victim, splitmix64
from . import ckernels
from .ckernels import NUM_COUNTS, check_shift

__all__ = ["run_set_assoc", "run_victim", "run_column", "run_hierarchy"]

# Slots of ``counts`` past the four access counters (ckernels.c's enum).
_EVICTIONS, _WRITEBACKS, _EXTRA0, _EXTRA1, _EXTRA2 = 4, 5, 6, 7, 8


def _blocks(name: str, addresses: np.ndarray, shift: int) -> np.ndarray:
    """Each address's block, ``addresses >> shift``, as int64."""
    shift = check_shift(name, addresses, shift)
    return (addresses >> np.uint64(shift)).view(np.int64)


def _probes(place, blocks: np.ndarray, ways: int, num_sets: int):
    """``(set indices, frame offset)`` per way for ``blocks``: set ``s`` of
    way ``w`` is frame ``w * num_sets + s``.  Every way of a conventional
    cache shares its one function's list, so a wide cache costs one list
    per batch, not one per way."""
    lists = [sets.tolist() for sets in place.sets(blocks)]
    return [(lists[way if len(lists) > 1 else 0], way * num_sets)
            for way in range(ways)]


def _policy(policy: str, ways: int, num_sets: int,
            stamps: Optional[np.ndarray], bits: Optional[np.ndarray],
            seed: int, draws: int):
    """``policy_t`` over flat list views of one structure's tables.

    Returns ``(touch, victim, stamps, close)``: ``touch(way, frame, now,
    fill)`` is ``policy_touch``, ``victim(cand)`` is ``policy_victim`` over
    each way's candidate frame, ``stamps`` the flat stamp list (``None`` for
    random) and ``close()`` writes the lists back and returns the random
    draws consumed.
    """
    stamp_l = None if stamps is None else stamps.reshape(-1).tolist()
    bit_l = None if bits is None else bits.tolist()

    def touch(way: int, frame: int, now: int, fill: bool) -> None:
        if policy == "lru" or (policy == "fifo" and fill):
            stamp_l[frame] = now
        elif policy == "plru":
            stamp_l[frame] = now
            plru_touch(bit_l[frame - way * num_sets], way, ways)

    def victim(cand: Sequence[int]) -> int:
        nonlocal draws
        if policy == "random":
            draw = splitmix64(seed + draws)
            draws += 1
            return draw % ways
        # The tree decides when every candidate shares one set; a skewed
        # spread falls back to true LRU over the timestamps.
        if policy == "plru":
            way = 1
            while way < ways and cand[way] - way * num_sets == cand[0]:
                way += 1
            if way == ways:
                return plru_victim(bit_l[cand[0]], ways)
        # The smallest timestamp, ties broken towards way 0.
        best_way, best = 0, stamp_l[cand[0]]
        for way in range(1, ways):
            if stamp_l[cand[way]] < best:
                best_way, best = way, stamp_l[cand[way]]
        return best_way

    def close() -> int:
        if stamp_l is not None:
            stamps.reshape(-1)[:] = stamp_l
        if bit_l is not None:
            bits[:] = bit_l
        return draws

    return touch, victim, stamp_l, close


def _level(blocks: np.ndarray, *, place, write_back: bool, policy: str,
           tags: np.ndarray, dirty: np.ndarray, stamps: Optional[np.ndarray],
           bits: Optional[np.ndarray], seed: int, io: np.ndarray):
    """``sa_access`` over list views of one cache's :func:`run_set_assoc`
    state for ``blocks``: returns ``(access, close, tags, dirty)``.
    ``access(i, block, write)`` (``block`` is ``blocks[i]``) returns
    ``(hit, frame hit or filled, or -1, the tag a fill replaced, or -1)``;
    ``close()`` writes the views back and returns the counters;
    ``tags``/``dirty`` are per-frame views."""
    ways, num_sets = tags.shape
    probes = _probes(place, blocks, ways, num_sets)
    tag_l = tags.reshape(-1).tolist()
    dirty_l = dirty.reshape(-1).tolist()
    clock, draws = io.tolist()
    touch, victim, stamp_l, close_policy = _policy(
        policy, ways, num_sets, stamps, bits, seed, draws)
    # ``touch`` inlined: a hit stamps under LRU and moves nothing under
    # FIFO or random, a fill stamps under every policy but random; PLRU
    # calls it for its tree.
    lru, plru = policy == "lru", policy == "plru"
    counts = [0] * NUM_COUNTS

    def access(i: int, block: int, write: int) -> Tuple[bool, int, int]:
        nonlocal clock
        clock += 1
        invalid = -1
        cand = []  # each way's candidate frame
        for way, (sets, base) in enumerate(probes):
            frame = base + sets[i]
            tag = tag_l[frame]
            if tag == block:
                counts[write] += 1
                if lru:
                    stamp_l[frame] = clock
                elif plru:
                    touch(way, frame, clock, False)
                if write and write_back:
                    dirty_l[frame] = 1
                return True, frame, -1
            if tag < 0 and invalid < 0:
                invalid = way
            cand.append(frame)
        counts[write] += 1
        counts[2 + write] += 1
        if write and not write_back:
            return False, -1, -1  # write-through / no-write-allocate
        way = invalid
        if way < 0:
            way = victim(cand)
            counts[_EVICTIONS] += 1
            if dirty_l[cand[way]]:
                counts[_WRITEBACKS] += 1
        frame = cand[way]
        evicted = tag_l[frame]
        tag_l[frame] = block
        dirty_l[frame] = int(write and write_back)
        if plru:
            touch(way, frame, clock, True)
        elif stamp_l is not None:
            stamp_l[frame] = clock
        return False, frame, evicted

    def close() -> np.ndarray:
        tags.reshape(-1)[:] = tag_l
        dirty.reshape(-1)[:] = dirty_l
        io[:] = (clock, close_policy())
        return np.array(counts, dtype=np.int64)

    return access, close, tag_l, dirty_l


def _fa_run(blocks: np.ndarray, writes: np.ndarray, *, write_back: bool,
            policy: str, tags: np.ndarray, dirty: np.ndarray,
            stamps: Optional[np.ndarray], bits: Optional[np.ndarray],
            seed: int, io: np.ndarray):
    """``fa_loop``: :func:`_level`'s accesses over a one-set cache in O(1)
    each, where its probe and victim scan every way; same hits, same state
    written.  A dict maps each block to the lowest way holding it, as the
    probe finds it.  A cursor finds the first invalid way: nothing is
    invalidated during a call, so it only moves forward.  LRU and FIFO
    victims are the head of an ordered dict of the valid ways, built in
    (stamp, way) order, each way moving to its end when stamped; that
    order holds while every stamp is at or below the clock, so a cache
    whose stamps run past it (the kernels never write one) is declined.
    PLRU victims come from the set's tree, random ones from the draws.
    Returns ``(hits, counts)``, or ``None`` when it declined (nothing
    changed)."""
    ways = tags.shape[0]
    tag_l = tags.reshape(-1).tolist()
    stamp_l = None if stamps is None else stamps.reshape(-1).tolist()
    clock, draws = io.tolist()
    lru, plru = policy == "lru", policy == "plru"
    order = None
    if policy in ("lru", "fifo"):
        valid = sorted((stamp_l[way], way) for way in range(ways)
                       if tag_l[way] >= 0)
        if valid and valid[-1][0] > clock:
            return None
        order = OrderedDict.fromkeys(way for _stamp, way in valid)
    dirty_l = dirty.reshape(-1).tolist()
    tree = bits[0].tolist() if plru else None
    # Filled from the top way down, so a block held twice maps to its
    # lowest way; ``shared`` marks a cache holding one so.
    way_of = {tag: way for way, tag in reversed(list(enumerate(tag_l)))
              if tag >= 0}
    shared = len(way_of) < sum(tag >= 0 for tag in tag_l)
    cursor = 0
    while cursor < ways and tag_l[cursor] >= 0:
        cursor += 1
    counts = [0] * NUM_COUNTS
    hits = []

    for block, write in zip(blocks.tolist(), writes.tolist()):
        clock += 1
        counts[write] += 1
        way = way_of.get(block, -1)
        hits.append(way >= 0)
        if way >= 0:
            if lru:
                order.move_to_end(way)
                stamp_l[way] = clock
            elif plru:
                stamp_l[way] = clock
                plru_touch(tree, way, ways)
            if write and write_back:
                dirty_l[way] = 1
            continue
        counts[2 + write] += 1
        if write and not write_back:
            continue  # write-through / no-write-allocate
        if cursor < ways:
            way = cursor
        else:
            if order is not None:
                way = order.popitem(last=False)[0]
            elif plru:
                way = plru_victim(tree, ways)
            else:
                way = splitmix64(seed + draws) % ways
                draws += 1
            counts[_EVICTIONS] += 1
            if dirty_l[way]:
                counts[_WRITEBACKS] += 1
        evicted = tag_l[way]
        tag_l[way] = block
        if way_of.get(evicted) == way:
            del way_of[evicted]
            if shared and evicted in tag_l:
                way_of[evicted] = tag_l.index(evicted)
        way_of[block] = way
        while cursor < ways and tag_l[cursor] >= 0:
            cursor += 1
        dirty_l[way] = int(write and write_back)
        if stamp_l is not None:
            stamp_l[way] = clock
        if plru:
            plru_touch(tree, way, ways)
        elif order is not None:
            order[way] = None

    tags.reshape(-1)[:] = tag_l
    dirty.reshape(-1)[:] = dirty_l
    if stamp_l is not None:
        stamps.reshape(-1)[:] = stamp_l
    if plru:
        bits[0] = tree
    io[:] = (clock, draws)
    return np.array(hits, dtype=bool), np.array(counts, dtype=np.int64)


def run_set_assoc(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
                  place, write_back: bool, policy: str, tags: np.ndarray,
                  dirty: np.ndarray, stamps: Optional[np.ndarray],
                  bits: Optional[np.ndarray], seed: int, io: np.ndarray):
    """:func:`repro.engine.ckernels.run_set_assoc` in Python
    (``repro_sa_run``, or ``repro_fa_run`` on the one-set path)."""
    blocks = _blocks("block", addresses, shift)
    if ckernels.set_assoc_path(tags.shape[1]) == "fully-assoc":
        done = _fa_run(blocks, writes, write_back=write_back, policy=policy,
                       tags=tags, dirty=dirty, stamps=stamps, bits=bits,
                       seed=seed, io=io)
        if done is not None:
            return done
    access, close, _tags, _dirty = _level(
        blocks, place=place, write_back=write_back, policy=policy, tags=tags,
        dirty=dirty, stamps=stamps, bits=bits, seed=seed, io=io)
    hits = [access(i, block, write)[0] for i, (block, write)
            in enumerate(zip(blocks.tolist(), writes.tolist()))]
    return np.array(hits, dtype=bool), close()


def run_victim(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
               place, policy: str, tags: np.ndarray, dirty: np.ndarray,
               stamps: Optional[np.ndarray], bits: Optional[np.ndarray],
               seed: int, vtags: np.ndarray, vdirty: np.ndarray,
               vstamps: Optional[np.ndarray], vbits: Optional[np.ndarray],
               vseed: int, io: np.ndarray):
    """:func:`repro.engine.ckernels.run_victim` in Python
    (``repro_victim_run``)."""
    blocks = _blocks("block", addresses, shift)
    ways, num_sets = tags.shape
    entries = vtags.shape[0]
    probes = _probes(place, blocks, ways, num_sets)
    tag_l = tags.reshape(-1).tolist()
    dirty_l = dirty.reshape(-1).tolist()
    vtag_l = vtags.tolist()
    vdirty_l = vdirty.tolist()
    main_clock, victim_clock, draws, vdraws = io.tolist()
    touch, victim, _stamps, close_main = _policy(
        policy, ways, num_sets, stamps, bits, seed, draws)
    vtouch, vvictim, _vstamps, close_buffer = _policy(
        policy, entries, 1, vstamps, vbits, vseed, vdraws)
    # The buffer is one set: entry j is frame j.
    buffer_frames = list(range(entries))
    counts = [0] * NUM_COUNTS
    hits = []

    for i, (b, w) in enumerate(zip(blocks.tolist(), writes.tolist())):
        invalid = hit_way = -1
        cand = []  # each way's candidate frame
        for way, (sets, base) in enumerate(probes):
            frame = base + sets[i]
            tag = tag_l[frame]
            if tag == b:
                hit_way = way
                break
            if tag < 0 and invalid < 0:
                invalid = way
            cand.append(frame)
        if hit_way >= 0:
            main_clock += 1
            touch(hit_way, frame, main_clock, False)
            if w:
                dirty_l[frame] = 1  # the main cache is write-back
            counts[w] += 1
            counts[_EXTRA0] += 1
            hits.append(True)
            continue
        # Main miss: probe the buffer; a hit leaves it for the main cache.
        slot = vtag_l.index(b) if b in vtag_l else -1
        counts[w] += 1
        hits.append(slot >= 0)
        if slot >= 0:
            counts[_EXTRA1] += 1
            vtag_l[slot] = -1
            vdirty_l[slot] = 0
        else:
            counts[2 + w] += 1
        # Refill the main cache (write-back, write-allocate).
        main_clock += 1
        evicted, evicted_dirty = -1, 0
        way = invalid
        if way < 0:
            way = victim(cand)
            evicted, evicted_dirty = tag_l[cand[way]], dirty_l[cand[way]]
        frame = cand[way]
        tag_l[frame] = b
        dirty_l[frame] = w
        touch(way, frame, main_clock, True)
        if evicted < 0:
            continue
        # Stash the displaced line; a dirty line falling out is written
        # back to the next level.
        victim_clock += 1
        slot = vtag_l.index(-1) if -1 in vtag_l else -1
        if slot < 0:
            slot = vvictim(buffer_frames)
            if vdirty_l[slot]:
                counts[_WRITEBACKS] += 1
        vtag_l[slot] = evicted
        vdirty_l[slot] = evicted_dirty
        vtouch(slot, slot, victim_clock, True)

    tags.reshape(-1)[:] = tag_l
    dirty.reshape(-1)[:] = dirty_l
    vtags[:] = vtag_l
    vdirty[:] = vdirty_l
    io[:] = (main_clock, victim_clock, close_main(), close_buffer())
    return np.array(hits, dtype=bool), np.array(counts, dtype=np.int64)


def run_column(addresses: np.ndarray, writes: np.ndarray, *, shift: int,
               place, swap: bool, tags: np.ndarray, dirty: np.ndarray,
               sec_of: np.ndarray):
    """:func:`repro.engine.ckernels.run_column` in Python
    (``repro_column_run``)."""
    blocks = _blocks("block", addresses, shift)
    primary, secondary = place.sets(blocks)
    tag_l = tags.tolist()
    dirty_l = dirty.tolist()
    sec_l = sec_of.tolist()
    counts = [0] * NUM_COUNTS
    hits = []

    for b, p, s, w in zip(blocks.tolist(), primary.tolist(),
                          secondary.tolist(), writes.tolist()):
        first_hit = tag_l[p] == b
        second_hit = not first_hit and s != p and tag_l[s] == b
        hit = first_hit or second_hit
        hits.append(hit)
        counts[w] += 1
        if not hit:
            counts[2 + w] += 1
        counts[_EXTRA2] += 1 if first_hit else 2
        if first_hit:
            counts[_EXTRA0] += 1
            continue
        displaced, displaced_dirty, displaced_sec = tag_l[p], dirty_l[p], \
            sec_l[p]
        if second_hit:
            counts[_EXTRA1] += 1
            if swap:
                # Promote the block to its primary slot (clean); the
                # primary occupant retreats to the secondary slot.
                tag_l[p], dirty_l[p], sec_l[p] = b, 0, s
                if displaced >= 0:
                    tag_l[s], dirty_l[s], sec_l[s] = (
                        displaced, displaced_dirty, displaced_sec)
                else:
                    tag_l[s], dirty_l[s] = -1, 0
            continue
        # Miss: install at the primary slot; its occupant retreats to its
        # own secondary slot.
        tag_l[p], dirty_l[p], sec_l[p] = b, 0, s
        if displaced < 0:
            continue
        if displaced_sec == p:
            counts[_EVICTIONS] += 1
            continue
        if tag_l[displaced_sec] >= 0:
            counts[_EVICTIONS] += 1
        tag_l[displaced_sec] = displaced
        dirty_l[displaced_sec] = displaced_dirty
        sec_l[displaced_sec] = displaced_sec

    tags[:] = tag_l
    dirty[:] = dirty_l
    sec_of[:] = sec_l
    return np.array(hits, dtype=bool), np.array(counts, dtype=np.int64)


def run_hierarchy(l1_addresses: np.ndarray, l2_addresses: np.ndarray,
                  writes: np.ndarray, *, shift: int, l1: dict, l2: dict,
                  l1_line: np.ndarray):
    """:func:`repro.engine.ckernels.run_hierarchy` in Python
    (``repro_hier_run``), its line map a ``dict``; ``l1_line`` is read,
    not written back, since the caller drops it."""
    l1_blocks = _blocks("block", l1_addresses, shift)
    lines = _blocks("L2 block", l2_addresses, shift)
    access1, close1, tags1, dirty1 = _level(l1_blocks, **l1)
    access2, close2, _tags2, _dirty2 = _level(lines, **l2)
    line_of = l1_line.tolist()
    frame_of = {line: frame for frame, line in enumerate(line_of)
                if line >= 0}
    l1_hits, l2_hits = [False] * len(lines), [False] * len(lines)
    holes = back = aliases = 0

    def drop(frame: int) -> None:
        tags1[frame] = -1
        dirty1[frame] = 0
        frame_of.pop(line_of[frame], None)
        line_of[frame] = -1

    for i, (block, line, w) in enumerate(zip(
            l1_blocks.tolist(), lines.tolist(), writes.tolist())):
        frame = frame_of.get(line, -1)
        if frame >= 0 and tags1[frame] != block:
            drop(frame)
            aliases += 1
        hit, frame, _evicted = access1(i, block, w)
        if hit:
            l1_hits[i] = l2_hits[i] = True
            if w:
                access2(i, line, True)
            continue
        if frame >= 0:
            frame_of.pop(line_of[frame], None)
            line_of[frame] = line
            frame_of[line] = frame
        hit2, _frame2, evicted = access2(i, line, w)
        l2_hits[i] = hit2
        copy = frame_of.get(evicted, -1) if evicted >= 0 else -1
        if copy < 0:
            continue
        back += 1
        if tags1[copy] != block:
            holes += 1
        drop(copy)

    return (np.array(l1_hits, dtype=bool), np.array(l2_hits, dtype=bool),
            close1(), close2(),
            np.array((holes, back, aliases), dtype=np.int64))
