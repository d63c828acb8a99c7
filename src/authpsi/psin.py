"""n-party authenticated set intersection tolerating t collusions.

All n parties pre-announce tree commitments to their equally-sized sets.
Around v = n - t the parties split into group A (P_1 .. P_{v-1}), a central
coordinator P_v, and group B (P_{v+1} .. P_n); P_n is the only party that
learns the intersection.

- transform: everyone broadcasts the root of the inputs it runs on. Each
  group-A party P_i draws one PRF key per group-B party, sends each key to
  its target, and ships the coordinator an oblivious table T_i encoding
  x -> XOR of the PRF of x under all those keys. The parties P_v .. P_n
  exchange pairwise zero-sharing seeds.
- interact: every party compares every other party's root with the one
  that party announced; the first failure anywhere broadcasts an abort and
  the whole session dies. The coordinator aggregates
  A^v(x) = XOR of Decode(T_i, x); each group-B party aggregates
  A^i(x) = XOR of its received PRF evaluations.
- reconstruct: each of P_v .. P_{n-1} programs an oblivious PRF with points
  (x, share(x) XOR A(x)) and sends the hint to P_n, which queries every hint
  at its own elements and keeps those x where its own share XOR A^n(x)
  equals the XOR of all received values. For an element held by everyone,
  each pairwise PRF term appears exactly twice and the zero-sharing shares
  cancel, so the test reduces to zero; any missing holder leaves an unpaired
  pseudorandom term.

Every 64-bit XOR value (table values, aggregates, shares, hint points and
the final comparison) is a uint64 array over the party's input set, so each
step above is a handful of whole-array XORs and batched PRF calls. Each
party hashes its elements once, into the leaves of its root, and every PRF,
OKVS row and OPRF query of the session runs over the digests d(x) those
leaves begin with (`psi2` says why that is sound).

Admission, the self-check, the root gate and the abort path are
`psi2.Party`'s, the core this engine shares with the two-party one. Each
party is owed one root from every other party, and by role:

- a group-B party: one group key (0x12) from each group-A party;
- the coordinator: one share table (0x13) from each group-A party;
- a subgroup member: one zero-sharing seed (0x16) from each lower member;
- a hint sender: its OPRF key (0x15) from the dealer;
- P_n: one hint (0x14) from each sender, and one evaluation response
  (0x15) from the dealer: the XOR over senders of their OPRFs at P_n's
  digests. P_n's test XORs the hints' decodes and those evaluations
  together, so the XOR is all it needs (`opprf` says why).

The core refuses anything else, so a handler checks only content: a key or
seed is the bare 16-byte payload, its endpoints the envelope's; a table or
hint must parse; P_n's evaluations must be one per own element. The dealer
(`harness.DealerService`) is owed one request (0x15) by each sender, which
is empty, and one by P_n, its digests. A fault at any endpoint, the dealer
included, becomes one abort to every party it deals with.

Only P_n terminates with output; everyone else ends with none. The gate
binds each party to its commitment as far as `psi2` states: a party that
replays its honest root is not caught. Apart from those roots, no message
between parties carries a function of a single element that the receiving
party could evaluate itself. The ideal-OPRF dealer sees P_n's queries as
session-salted element digests d(x), not as plaintext elements, though it
can still test a guessed element against them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf, okvs, opprf, zeroshare
from .errors import ConfigError, ProtocolError
# decode_root_proofs is held by name so bench/layers.py's tracer reaches it here too
from .psi2 import Party, PartyConfig, decode_root_proofs  # noqa: F401
from .transport import DEALER_INDEX

MSG_ROOT_PROOFS = 0x11
MSG_GROUP_KEY = 0x12
MSG_SHARE_TABLE = 0x13
MSG_OPPRF_HINT = 0x14
MSG_OPRF_DEALER = opprf.MSG_OPRF_DEALER  # 0x15
MSG_ZS_SEED = 0x16
MSG_ABORT = 0x1F


def _bare_key(raw: bytes, what: str) -> bytes:
    """A group key, zero-sharing seed or OPRF key: the bare key, its endpoints are the envelope's."""
    if len(raw) != zeroshare.SEED_BYTES:
        raise ProtocolError(f"undecodable {what}")
    return raw


def oprf_senders(n: int, t: int) -> list[int]:
    """Hint senders, the coordinator P_{n-t} through P_{n-1}: each asks the
    dealer for its OPRF key."""
    return list(range(n - t, n))


@dataclass(kw_only=True)
class PartyConfigN(PartyConfig):
    t: int

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("multi-party runs need at least 3 parties")
        # the collusion cap admits the boundary grid point at odd n, e.g. (5, 3)
        if not 1 <= self.t <= (self.n + 1) // 2:
            raise ConfigError(f"collusion bound t={self.t} out of range for n={self.n}")
        if self.v < 2:
            raise ConfigError("n - t must be at least 2")
        super().__post_init__()
        sizes = {r.set_size for r in self.roots.values()}
        # the adversarial knob also lifts the own-size check so a tampered
        # party can run with an inflated set against its stale commitment
        if not self.skip_self_check and sizes != {len(self.input_set)}:
            raise ConfigError("all parties must commit to sets of one common size")
        if len(sizes) != 1:
            raise ConfigError("announced commitments disagree on the set size")

    @property
    def v(self) -> int:
        return self.n - self.t

    @property
    def n_l(self) -> int:
        return len(self.input_set)

    @property
    def group_a(self) -> list[int]:
        return list(range(1, self.v))

    @property
    def group_b(self) -> list[int]:
        return list(range(self.v + 1, self.n + 1))

    @property
    def subgroup(self) -> list[int]:
        """Zero-sharing participants: coordinator through P_n."""
        return list(range(self.v, self.n + 1))

    @property
    def senders(self) -> list[int]:
        return oprf_senders(self.n, self.t)


class PsinEngine(Party):
    """Message-driven state machine for one party of an n-party session; only P_n gets output."""
    ROOT_TYPE = MSG_ROOT_PROOFS
    ABORT_TYPE = MSG_ABORT

    def __init__(self, config: PartyConfigN, rng: Optional[np.random.Generator] = None):
        super().__init__(config, rng)
        cfg, i = config, config.party_index
        owed = self._owed
        if i in cfg.group_b:
            owed[MSG_GROUP_KEY] = dict.fromkeys(cfg.group_a, 1)
        if i == cfg.v:
            owed[MSG_SHARE_TABLE] = dict.fromkeys(cfg.group_a, 1)
        if i > cfg.v:  # the subgroup above the coordinator
            owed[MSG_ZS_SEED] = dict.fromkeys(range(cfg.v, i), 1)
        if i == cfg.n:
            owed[MSG_OPPRF_HINT] = dict.fromkeys(cfg.senders, 1)
        if i == cfg.n or i in cfg.senders:
            owed[MSG_OPRF_DEALER] = {DEALER_INDEX: 1}
        # group B: group-A PRF keys by sender; coordinator: their share tables
        self.groupa_keys: dict[int, bytes] = {}
        self._share_tables: dict[int, okvs.OkvsTable] = {}
        # subgroup: zero-sharing seed per counterpart
        self._zs_seeds: dict[int, bytes] = {}
        # sender: its OPRF key; P_n: each sender's hint and the dealer's evaluations
        self._oprf_key: Optional[bytes] = None
        self._hints: dict[int, okvs.OkvsTable] = {}
        self._evals: Optional[np.ndarray] = None
        self._evals_requested = False

    # -- transform -----------------------------------------------------------

    def start(self) -> list:
        t0 = time.perf_counter()
        out = self._open()
        cfg = self.config
        i = cfg.party_index

        if i in cfg.group_a:
            keys = {j: self.rng.bytes(zeroshare.SEED_BYTES) for j in cfg.group_b}
            out.extend((j, self._env(MSG_GROUP_KEY, key)) for j, key in keys.items())
            values = np.zeros((cfg.n_l, 2), dtype=zeroshare.VALUE_DTYPE)
            values[:, 0] = zeroshare.prf(list(keys.values()), self.digests)
            result = okvs.encode_with_retry(self.digests, values, okvs.MAX_ENCODE_ATTEMPTS,
                                            self.rng)
            if result is None:
                self.phase_ms["transform"] = (time.perf_counter() - t0) * 1000
                return out + self._abort("share table encoding failed")
            table, _ = result
            out.append((cfg.v, self._env(MSG_SHARE_TABLE, table.to_bytes())))

        if i in cfg.subgroup:
            for j in range(i + 1, cfg.n + 1):
                self._zs_seeds[j] = self.rng.bytes(zeroshare.SEED_BYTES)
                out.append((j, self._env(MSG_ZS_SEED, self._zs_seeds[j])))

        if i in cfg.senders:  # the key request is empty: the dealer keys by the sender's index
            out.append((DEALER_INDEX, self._env(MSG_OPRF_DEALER, b"")))

        self.phase_ms["transform"] = (time.perf_counter() - t0) * 1000
        return out

    # -- message handling ----------------------------------------------------

    def handle(self, src: int, env) -> list:
        return self._route(src, env, {MSG_ROOT_PROOFS: self._on_root,
                                      MSG_GROUP_KEY: self._on_group_key,
                                      MSG_SHARE_TABLE: self._on_share_table,
                                      MSG_ZS_SEED: self._on_zs_seed,
                                      MSG_OPPRF_HINT: self._on_hint,
                                      MSG_OPRF_DEALER: self._on_oprf_dealer})

    def _on_group_key(self, src: int, payload: bytes) -> list:
        self.groupa_keys[src] = _bare_key(payload, f"group key from party {src}")
        return self._advance()

    def _on_share_table(self, src: int, payload: bytes) -> list:
        try:
            self._share_tables[src] = okvs.OkvsTable.from_bytes(payload, self.config.n_l)
        except ValueError as exc:
            raise ProtocolError(f"undecodable share table from party {src}: {exc}") from exc
        return self._advance()

    def _on_zs_seed(self, src: int, payload: bytes) -> list:
        self._zs_seeds[src] = _bare_key(payload, f"zero-sharing seed from party {src}")
        return self._advance()

    def _on_oprf_dealer(self, src: int, payload: bytes) -> list:
        """A sender's OPRF key, or P_n's evaluations: 8 bytes per own element."""
        cfg = self.config
        if cfg.party_index != cfg.n:
            self._oprf_key = _bare_key(payload, "OPRF key from the dealer")
        elif len(payload) != cfg.n_l * zeroshare.VALUE_DTYPE.itemsize:
            raise ProtocolError("wrong OPRF evaluation count")
        else:
            self._evals = np.frombuffer(payload, dtype=zeroshare.VALUE_DTYPE)
        return self._advance()

    def _on_hint(self, src: int, payload: bytes) -> list:
        try:
            self._hints[src] = okvs.OkvsTable.from_bytes(payload, self.config.n_l)
        except ValueError as exc:
            raise ProtocolError(f"undecodable hint from party {src}: {exc}") from exc
        return self._advance()

    # -- progress ------------------------------------------------------------

    def _zs_keyset(self) -> zeroshare.ZsKeySet:
        return zeroshare.ZsKeySet(party_index=self.config.party_index, keys=self._zs_seeds)

    def _aggregate(self) -> np.ndarray:
        """A^i per own element, uint64: tables at the coordinator, PRF keys in group B."""
        cfg = self.config
        if cfg.party_index == cfg.v:
            agg = np.zeros(cfg.n_l, dtype=zeroshare.VALUE_DTYPE)
            for table in self._share_tables.values():
                agg ^= okvs.decode_batch(table, self.digests)[:, 0]
            return agg
        return zeroshare.prf([self.groupa_keys[s] for s in cfg.group_a], self.digests)

    def _own_values(self) -> np.ndarray:
        """share(x) XOR A^i(x) per own element: what a sender programs, what P_n compares."""
        return zeroshare.zs_share(self._zs_keyset(), self.digests) ^ self._aggregate()

    def _advance(self) -> list:
        """P_n asks the dealer for its evaluations once every root has passed;
        each party finishes once it is owed nothing more."""
        cfg = self.config
        i = cfg.party_index
        out = []
        if i == cfg.n and not self._evals_requested and self._settled(self.ROOT_TYPE):
            self._evals_requested = True
            out = [(DEALER_INDEX, self._env(MSG_OPRF_DEALER, gf.vec_to_bytes(self.digests)))]
        if not self._settled():
            return out
        if i in cfg.group_a:
            self.phase = "done"
            return out
        t0 = time.perf_counter()
        if i == cfg.n:
            own = self._own_values()
            combined = opprf.opprf_query_batch([self._hints[s] for s in cfg.senders],
                                               self.digests, self._evals)
            self.intersection = {cfg.input_set[q] for q in np.flatnonzero(own == combined)}
        else:
            hint = opprf.opprf_program(self.digests, self._own_values(), self._oprf_key,
                                       rng=self.rng)
            out.append((cfg.n, self._env(MSG_OPPRF_HINT, hint.to_bytes())))
        self.phase = "done"
        self.phase_ms["reconstruct"] = (time.perf_counter() - t0) * 1000
        return out
