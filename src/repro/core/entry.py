"""128-bit sample directory entries (paper Fig 3b).

Each entry is two 64-bit units:

* unit 1 — ``NID`` (16 bits, storage-node/shard id) | ``key`` (48 bits,
  hash of the sample name and attributes);
* unit 2 — ``offset`` (40 bits, byte offset on the NVMe device) |
  ``len`` (23 bits, sample length) | ``V`` (1 bit, copy present in the
  local sample cache).

Packing is real: the directory stores entries as ``uint64`` pairs, and
all field access goes through the shift/mask helpers below (scalar and
numpy-vectorized forms).  A 40-bit offset addresses 1 TB per device and
a 23-bit length caps samples at 8 MB — both comfortably above the
paper's workloads, and both enforced.
"""

from __future__ import annotations

import numpy as np

from ..errors import EntryFormatError

__all__ = [
    "NID_BITS",
    "KEY_BITS",
    "OFFSET_BITS",
    "LEN_BITS",
    "MAX_NID",
    "MAX_KEY",
    "MAX_OFFSET",
    "MAX_LEN",
    "pack_unit1",
    "pack_unit2",
    "unpack_unit1",
    "unpack_unit2",
    "nid_of",
    "key_of",
    "offset_of",
    "len_of",
    "v_of",
    "with_v",
    "pack_entries",
    "fnv1a_48",
    "fnv1a_64",
    "hash_sample_name",
    "hash_sample_names",
]

NID_BITS = 16
KEY_BITS = 48
OFFSET_BITS = 40
LEN_BITS = 23
V_BITS = 1

assert NID_BITS + KEY_BITS == 64
assert OFFSET_BITS + LEN_BITS + V_BITS == 64

MAX_NID = (1 << NID_BITS) - 1
MAX_KEY = (1 << KEY_BITS) - 1
MAX_OFFSET = (1 << OFFSET_BITS) - 1
MAX_LEN = (1 << LEN_BITS) - 1

_KEY_MASK = MAX_KEY
_OFFSET_SHIFT = LEN_BITS + V_BITS  # offset occupies the top 40 bits
_LEN_SHIFT = V_BITS
_LEN_MASK = MAX_LEN
_V_MASK = 1


# -- scalar packing -----------------------------------------------------------
def pack_unit1(nid: int, key: int) -> int:
    """First 64-bit unit: NID in the top 16 bits, key in the low 48."""
    if not 0 <= nid <= MAX_NID:
        raise EntryFormatError(f"NID {nid} does not fit in {NID_BITS} bits")
    if not 0 <= key <= MAX_KEY:
        raise EntryFormatError(f"key {key} does not fit in {KEY_BITS} bits")
    return (nid << KEY_BITS) | key


def pack_unit2(offset: int, length: int, v: bool = False) -> int:
    """Second 64-bit unit: offset | len | V."""
    if not 0 <= offset <= MAX_OFFSET:
        raise EntryFormatError(f"offset {offset} does not fit in {OFFSET_BITS} bits")
    if not 0 < length <= MAX_LEN:
        raise EntryFormatError(
            f"length {length} outside (0, {MAX_LEN}] for {LEN_BITS} bits"
        )
    return (offset << _OFFSET_SHIFT) | (length << _LEN_SHIFT) | int(bool(v))


def unpack_unit1(unit1: int) -> tuple[int, int]:
    """-> (nid, key)."""
    return (unit1 >> KEY_BITS) & MAX_NID, unit1 & _KEY_MASK


def unpack_unit2(unit2: int) -> tuple[int, int, bool]:
    """-> (offset, length, v)."""
    return (
        (unit2 >> _OFFSET_SHIFT) & MAX_OFFSET,
        (unit2 >> _LEN_SHIFT) & _LEN_MASK,
        bool(unit2 & _V_MASK),
    )


def nid_of(unit1: int) -> int:
    return (unit1 >> KEY_BITS) & MAX_NID


def key_of(unit1: int) -> int:
    return unit1 & _KEY_MASK


def offset_of(unit2: int) -> int:
    return (unit2 >> _OFFSET_SHIFT) & MAX_OFFSET


def len_of(unit2: int) -> int:
    return (unit2 >> _LEN_SHIFT) & _LEN_MASK


def v_of(unit2: int) -> bool:
    return bool(unit2 & _V_MASK)


def with_v(unit2: int, v: bool) -> int:
    """Copy of unit2 with the V bit set/cleared."""
    return (unit2 & ~_V_MASK) | int(bool(v))


# -- vectorized packing --------------------------------------------------------
def pack_entries(
    nids: np.ndarray, keys: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack whole arrays into (unit1[], unit2[]) with V=0.

    Used at mount time to build millions of entries without a Python
    loop.  Range violations raise :class:`EntryFormatError`.
    """
    nids = np.asarray(nids, dtype=np.uint64)
    keys = np.asarray(keys, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.uint64)
    if (nids > MAX_NID).any():
        raise EntryFormatError("an NID exceeds 16 bits")
    if (keys > MAX_KEY).any():
        raise EntryFormatError("a key exceeds 48 bits")
    if (offsets > MAX_OFFSET).any():
        raise EntryFormatError("an offset exceeds 40 bits")
    if (lengths > MAX_LEN).any() or (lengths == 0).any():
        raise EntryFormatError("a length is zero or exceeds 23 bits")
    unit1 = (nids << np.uint64(KEY_BITS)) | keys
    unit2 = (offsets << np.uint64(_OFFSET_SHIFT)) | (lengths << np.uint64(_LEN_SHIFT))
    return unit1, unit2


# -- hashing ---------------------------------------------------------------------
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """FNV-1a over ``data`` (64-bit)."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def fnv1a_48(data: bytes) -> int:
    """48-bit key: xor-fold of the 64-bit FNV-1a hash."""
    h = fnv1a_64(data)
    return (h ^ (h >> 48)) & MAX_KEY


def hash_sample_name(name: str) -> tuple[int, int]:
    """(48-bit directory key, 16-bit disambiguation check).

    The key orders its shard's directory tree; the check distinguishes
    colliding names (the paper's "other attributes such as its class"
    folded into the hash).
    """
    h = fnv1a_64(name.encode())
    key = (h ^ (h >> 48)) & MAX_KEY
    check = (h >> 48) & 0xFFFF
    return key, check


def hash_sample_names(dataset_name: str, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`hash_sample_name` for canonical dataset names.

    Bit-exact with the scalar path on ``f"{dataset_name}/{i:08d}"`` but
    hashes millions of names in a handful of numpy passes: the FNV state
    after the fixed prefix is computed once, then the eight decimal
    digits are folded in columnwise.

    Returns (keys[uint64 48-bit], checks[uint64 16-bit]).
    """
    indices = np.asarray(indices, dtype=np.uint64)
    if (indices > 99_999_999).any():
        raise EntryFormatError("vectorized hashing supports indices < 1e8")
    prime = np.uint64(_FNV_PRIME)
    h = np.full(
        indices.shape,
        fnv1a_64((dataset_name + "/").encode()),
        dtype=np.uint64,
    )
    ascii_zero = np.uint64(ord("0"))
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        for place in range(7, -1, -1):
            digit = (indices // np.uint64(10**place)) % np.uint64(10)
            h = (h ^ (digit + ascii_zero)) * prime
    keys = (h ^ (h >> np.uint64(48))) & np.uint64(MAX_KEY)
    checks = (h >> np.uint64(48)) & np.uint64(0xFFFF)
    return keys, checks
