"""Modular exponentiation on libcrypto's Montgomery kernels.

A kernel has two entry points, split by whose exponent it takes:

* **secret exponents** -- ``kernel(base, exponent)``, one
  ``BN_mod_exp_mont_consttime`` call: every power of
  :class:`~repro.crypto.group.GroupEngine` a share value, a nonce or a
  dealer's coefficient reaches, and every Miller-Rabin round of
  :class:`~repro.crypto.field.PrimeField`.  Its cost follows the
  modulus, not the exponent: a 4-bit exponent is padded to whole 64-bit
  words.
* **public exponents** -- ``kernel.product(pairs)``, the variable-time
  ``prod_i base_i^{exp_i}``: each two pairs, in the order given, are one
  ``BN_mod_exp2_mont`` call (one shared squaring chain), an odd one left
  over one ``BN_mod_exp_mont``.  Its cost follows the longer exponent of
  each call; the engine's callers already list their exponents grouped
  by width.

Both run against a ``BN_MONT_CTX`` built once per modulus.  The library
is the ``libcrypto`` CPython's ``_hashlib`` already maps, read from
``/proc/self/maps`` on the first :func:`mod_exp` call: no library search,
no subprocess, no second OpenSSL.  Off Linux, or without that mapping,
the kernel is :class:`PowExp`, the same two entry points on builtin
``pow``.  Both give the same value for every exponent ``>= 0`` and
refuse a negative one with :class:`ValueError`.
"""

from __future__ import annotations

import ctypes
import os
import sys
from functools import cache
from typing import Sequence

__all__ = ["ModExp", "PowExp", "mod_exp"]

_P = ctypes.c_void_p

#: ``name: (restype, argtypes)`` of every libcrypto function the kernel calls
_SIGNATURES = {
    "BN_CTX_new": (_P, ()),
    "BN_CTX_free": (None, (_P,)),
    "BN_new": (_P, ()),
    "BN_free": (None, (_P,)),
    "BN_bin2bn": (_P, (ctypes.c_char_p, ctypes.c_int, _P)),
    "BN_bn2binpad": (ctypes.c_int, (_P, ctypes.c_char_p, ctypes.c_int)),
    "BN_MONT_CTX_new": (_P, ()),
    "BN_MONT_CTX_free": (None, (_P,)),
    "BN_MONT_CTX_set": (ctypes.c_int, (_P, _P, _P)),
    "BN_mod_exp_mont_consttime": (ctypes.c_int, (_P, _P, _P, _P, _P, _P)),
    "BN_mod_exp_mont": (ctypes.c_int, (_P, _P, _P, _P, _P, _P)),
    "BN_mod_exp2_mont": (ctypes.c_int, (_P, _P, _P, _P, _P, _P, _P, _P)),
}


@cache
def _libcrypto() -> ctypes.CDLL | None:
    """The libcrypto ``_hashlib`` maps, :data:`_SIGNATURES` declared; ``None``
    without one and off Linux (opening another libcrypto can abort)."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        import _hashlib  # noqa: F401  (maps the libcrypto it links)

        with open("/proc/self/maps") as maps:
            paths = [line.split(maxsplit=5)[-1].rstrip("\n") for line in maps]
        path = next(p for p in paths if os.path.basename(p).startswith("libcrypto.so"))
        lib = ctypes.CDLL(path)  # the mapped object itself, not a second copy
        for fn, (restype, argtypes) in _SIGNATURES.items():
            getattr(lib, fn).restype = restype
            getattr(lib, fn).argtypes = argtypes
    except (ImportError, OSError, StopIteration, AttributeError):
        return None
    return lib


def _nonnegative(exponent: int) -> int:
    if exponent < 0:
        raise ValueError("the kernel takes no negative exponent")
    return exponent


class ModExp:
    """Powers mod one odd modulus, in libcrypto.

    Holds the modulus and its ``BN_MONT_CTX``, which libcrypto only
    reads; each exponentiation makes and frees its own ``BN_CTX`` and
    operands.
    """

    __slots__ = ("modulus", "_lib", "_size", "_bn", "_mont")

    def __init__(self, lib: ctypes.CDLL, modulus: int) -> None:
        self.modulus = modulus
        self._lib = lib
        self._size = size = (modulus.bit_length() + 7) // 8
        self._bn = lib.BN_bin2bn(modulus.to_bytes(size, "big"), size, None)
        self._mont = lib.BN_MONT_CTX_new()
        ctx = lib.BN_CTX_new()
        try:
            ok = self._bn and self._mont and ctx and lib.BN_MONT_CTX_set(self._mont, self._bn, ctx)
        finally:
            lib.BN_CTX_free(ctx)
        if not ok:
            raise MemoryError("libcrypto could not set up a Montgomery context")

    def __del__(self) -> None:
        self._lib.BN_MONT_CTX_free(self._mont)
        self._lib.BN_free(self._bn)

    def __call__(self, base: int, exponent: int) -> int:
        """``base^exponent`` in constant time: the entry for secret exponents."""
        return self._exp(self._lib.BN_mod_exp_mont_consttime, ((base, _nonnegative(exponent)),))

    def product(self, pairs: Sequence[tuple[int, int]]) -> int:
        """``prod_i base_i^{exp_i}`` in variable time: public exponents only.

        Each two pairs, in the order given, share one ``BN_mod_exp2_mont``
        call; an odd one left over is one ``BN_mod_exp_mont`` call.  A
        zero exponent's pair is dropped: ``BN_mod_exp2_mont`` reads
        ``0^0`` as 0.
        """
        kept = [(base, _nonnegative(exponent)) for base, exponent in pairs if exponent]
        lib, m = self._lib, self.modulus
        acc = 1
        for i in range(0, len(kept) - 1, 2):
            acc = acc * self._exp(lib.BN_mod_exp2_mont, kept[i:i + 2]) % m
        if len(kept) & 1:
            acc = acc * self._exp(lib.BN_mod_exp_mont, kept[-1:]) % m
        return acc

    def _exp(self, fn, pairs: Sequence[tuple[int, int]]) -> int:
        """``fn(r, base_1, exp_1, ..., m, ctx, mont)``'s result ``r``;
        exponents already checked non-negative."""
        lib, size, m = self._lib, self._size, self.modulus
        ctx, r = lib.BN_CTX_new(), lib.BN_new()
        operands = []
        try:
            for base, exponent in pairs:
                e_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
                operands.append(lib.BN_bin2bn((base % m).to_bytes(size, "big"), size, None))
                operands.append(lib.BN_bin2bn(e_bytes, len(e_bytes), None))
            if not (ctx and r and all(operands) and fn(r, *operands, self._bn, ctx, self._mont)):
                raise MemoryError(f"libcrypto {fn.__name__} failed")
            out = ctypes.create_string_buffer(size)
            lib.BN_bn2binpad(r, out, size)
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in (r, *operands):
                lib.BN_free(bn)
            lib.BN_CTX_free(ctx)


class PowExp:
    """:class:`ModExp`'s two entry points on builtin ``pow``."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def __call__(self, base: int, exponent: int) -> int:
        return pow(base, _nonnegative(exponent), self.modulus)

    def product(self, pairs: Sequence[tuple[int, int]]) -> int:
        m = self.modulus
        acc = 1
        for base, exponent in pairs:
            acc = acc * pow(base, _nonnegative(exponent), m) % m
        return acc


def mod_exp(modulus: int) -> ModExp | PowExp:
    """The kernel for ``modulus``: a :class:`ModExp` when libcrypto
    loads, else a :class:`PowExp`."""
    if modulus < 3 or not modulus & 1:
        raise ValueError("the Montgomery kernel needs an odd modulus >= 3")
    lib = _libcrypto()
    if lib is None:
        return PowExp(modulus)
    return ModExp(lib, modulus)
