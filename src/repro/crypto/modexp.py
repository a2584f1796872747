"""Modular exponentiation on libcrypto's Montgomery kernel.

Every power of :class:`~repro.crypto.group.GroupEngine` and every
Miller-Rabin round of :class:`~repro.crypto.field.PrimeField` is one
``BN_mod_exp_mont_consttime`` call (share and nonce exponents included)
against a ``BN_MONT_CTX`` built once per modulus.  The library is the
``libcrypto`` CPython's ``_hashlib`` already maps, read from
``/proc/self/maps`` on the first :func:`mod_exp` call: no library search,
no subprocess, no second OpenSSL.  Off Linux, or without that mapping,
the kernel is builtin ``pow``.  Both paths give the same value for every
exponent ``>= 0`` and refuse a negative one with :class:`ValueError`.
"""

from __future__ import annotations

import ctypes
import os
import sys
from functools import cache
from typing import Callable

__all__ = ["ModExp", "mod_exp"]

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
    """``base^exponent mod modulus`` for one odd modulus, in libcrypto.

    Holds the modulus and its ``BN_MONT_CTX``, which libcrypto only
    reads; each call makes and frees its own ``BN_CTX`` and operands.
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
        lib, size = self._lib, self._size
        e_bytes = _nonnegative(exponent).to_bytes((exponent.bit_length() + 7) // 8, "big")
        ctx = lib.BN_CTX_new()
        a = lib.BN_bin2bn((base % self.modulus).to_bytes(size, "big"), size, None)
        e = lib.BN_bin2bn(e_bytes, len(e_bytes), None)
        r = lib.BN_new()
        try:
            if not (ctx and a and e and r and lib.BN_mod_exp_mont_consttime(
                r, a, e, self._bn, ctx, self._mont
            )):
                raise MemoryError("libcrypto BN_mod_exp_mont_consttime failed")
            out = ctypes.create_string_buffer(size)
            lib.BN_bn2binpad(r, out, size)
            return int.from_bytes(out.raw, "big")
        finally:
            lib.BN_free(r)
            lib.BN_free(e)
            lib.BN_free(a)
            lib.BN_CTX_free(ctx)


def mod_exp(modulus: int) -> Callable[[int, int], int]:
    """The kernel ``(base, exponent) -> base^exponent mod modulus``.

    A :class:`ModExp` when libcrypto loads, else builtin ``pow``.
    """
    if modulus < 3 or not modulus & 1:
        raise ValueError("the Montgomery kernel needs an odd modulus >= 3")
    lib = _libcrypto()
    if lib is None:
        return lambda base, exponent: pow(base, _nonnegative(exponent), modulus)
    return ModExp(lib, modulus)
