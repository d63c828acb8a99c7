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

The self-check, the root gate and the abort path are `psi2.Party`'s, the
core this engine shares with the two-party one: a handler raises
`ProtocolError` on a peer's fault, and the core turns it into one abort to
every other party.

Only P_n terminates with output; everyone else ends with none. The gate
binds each party to its commitment as far as `psi2` states: a party that
replays its honest root is not caught. Apart from those roots, no message
between parties carries a function of a single element that the receiving
party could evaluate itself. The ideal-OPRF dealer sees P_n's queries as
session-salted element digests d(x), not as plaintext elements, though it
can still test a guessed element against them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import okvs, opprf, zeroshare
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


def oprf_session_id(session_id: bytes, sender_index: int) -> bytes:
    return hashlib.sha256(session_id + b"oprf" + sender_index.to_bytes(2, "big")).digest()[:16]


def encode_indexed_key(i: int, j: int, key: bytes) -> bytes:
    return i.to_bytes(2, "big") + j.to_bytes(2, "big") + key


def decode_indexed_key(raw: bytes, what: str) -> tuple[int, int, bytes]:
    if len(raw) != 4 + 16:
        raise ProtocolError(f"undecodable {what}")
    return int.from_bytes(raw[:2], "big"), int.from_bytes(raw[2:4], "big"), raw[4:]


def oprf_senders(n: int, t: int) -> list[int]:
    """Hint senders, the coordinator P_{n-t} through P_{n-1}: each asks the
    dealer for its OPRF key."""
    return list(range(n - t, n))


def dealer_clients(n: int, t: int) -> frozenset[int]:
    """The parties that request from the dealer: the OPRF senders, and P_n,
    which asks it to evaluate each sender's OPRF."""
    return frozenset(oprf_senders(n, t) + [n])


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
        # group-A keys this party holds (group B side): sender index -> key
        self.groupa_keys: dict[int, bytes] = {}
        # PRF keys a group-A party generated, per group-B target
        self._own_groupb_keys: dict[int, bytes] = {}
        # zero-sharing pair seeds within the subgroup
        self._zs_seeds: dict[tuple[int, int], bytes] = {}
        # coordinator: tables from group A
        self._share_tables: dict[int, okvs.OkvsTable] = {}
        # sender side: OPRF key once the dealer answers
        self._oprf_key: Optional[bytes] = None
        self._hint_sent = False
        # P_n side
        self._hints: dict[int, opprf.OpprfHint] = {}
        self._evals: dict[int, np.ndarray] = {}
        self._eval_requested: set[int] = set()

    def _is_sender(self) -> bool:
        return self.config.party_index in self.config.senders

    # -- transform -----------------------------------------------------------

    def start(self) -> list:
        t0 = time.perf_counter()
        out = self._open()
        cfg = self.config
        i = cfg.party_index

        if i in cfg.group_a:
            for j in cfg.group_b:
                key = self.rng.bytes(zeroshare.SEED_BYTES)
                self._own_groupb_keys[j] = key
                out.append((j, self._env(MSG_GROUP_KEY, encode_indexed_key(i, j, key))))
            values = np.zeros((cfg.n_l, 2), dtype=zeroshare.VALUE_DTYPE)
            values[:, 0] = zeroshare.prf([self._own_groupb_keys[j] for j in cfg.group_b],
                                         self.digests)
            result = okvs.encode_with_retry(self.digests, values, okvs.MAX_ENCODE_ATTEMPTS,
                                            self.rng)
            if result is None:
                self.phase_ms["transform"] = (time.perf_counter() - t0) * 1000
                return out + self._abort("share table encoding failed")
            table, _ = result
            out.append((cfg.v, self._env(MSG_SHARE_TABLE, table.to_bytes())))

        if i in cfg.subgroup:
            for j in cfg.subgroup:
                if j > i:
                    seed = self.rng.bytes(zeroshare.SEED_BYTES)
                    self._zs_seeds[(i, j)] = seed
                    out.append((j, self._env(MSG_ZS_SEED, encode_indexed_key(i, j, seed))))

        if self._is_sender():
            sid = oprf_session_id(cfg.session_id, i)
            out.append((DEALER_INDEX, self._env(MSG_OPRF_DEALER, opprf.encode_key_request(sid))))

        self.phase_ms["transform"] = (time.perf_counter() - t0) * 1000
        return out

    # -- message handling ----------------------------------------------------

    def handle(self, src: int, env) -> list:
        return self._route(src, env, {MSG_GROUP_KEY: self._on_group_key,
                                      MSG_SHARE_TABLE: self._on_share_table,
                                      MSG_ZS_SEED: self._on_zs_seed,
                                      MSG_OPPRF_HINT: self._on_hint,
                                      MSG_OPRF_DEALER: self._on_oprf_dealer})

    def _on_group_key(self, src: int, payload: bytes) -> list:
        cfg = self.config
        i, j, key = decode_indexed_key(payload, f"group key from party {src}")
        if src != i or j != cfg.party_index or src not in cfg.group_a or cfg.party_index not in cfg.group_b:
            raise ProtocolError(f"group key from party {src} has inconsistent endpoints")
        if i in self.groupa_keys:
            raise ProtocolError(f"duplicate group key from party {i}")
        self.groupa_keys[i] = key
        return self._advance()

    def _on_share_table(self, src: int, payload: bytes) -> list:
        cfg = self.config
        if cfg.party_index != cfg.v or src not in cfg.group_a:
            raise ProtocolError("share table sent to a non-coordinator")
        if src in self._share_tables:
            raise ProtocolError(f"duplicate share table from party {src}")
        try:
            table = okvs.OkvsTable.from_bytes(payload)
        except ValueError as exc:
            raise ProtocolError(f"undecodable share table from party {src}: {exc}") from exc
        params = table.params
        if params != okvs.OkvsParams.for_size(cfg.n_l, params.row_seed):
            raise ProtocolError(f"share table from party {src} has the wrong parameters")
        self._share_tables[src] = table
        return self._advance()

    def _on_zs_seed(self, src: int, payload: bytes) -> list:
        cfg = self.config
        i, j, seed = decode_indexed_key(payload, f"zero-sharing seed from party {src}")
        if src != i or j != cfg.party_index:
            raise ProtocolError(f"zero-sharing seed from party {src} has inconsistent endpoints")
        if i not in cfg.subgroup or j not in cfg.subgroup or not i < j:
            raise ProtocolError(f"zero-sharing seed from party {src} is outside the subgroup")
        if (i, j) in self._zs_seeds:
            raise ProtocolError(f"duplicate zero-sharing seed from party {i}")
        self._zs_seeds[(i, j)] = seed
        return self._advance()

    def _on_oprf_dealer(self, src: int, payload: bytes) -> list:
        cfg = self.config
        if src != DEALER_INDEX:
            raise ProtocolError("OPRF dealer traffic from a non-dealer")
        subtype, session, body = opprf.decode_dealer_payload(payload)
        if subtype == opprf.OPRF_KEY_RESPONSE:
            if not self._is_sender() or session != oprf_session_id(cfg.session_id, cfg.party_index):
                raise ProtocolError("OPRF key for the wrong party")
            self._oprf_key = body
            return self._advance()
        if subtype == opprf.OPRF_EVAL_RESPONSE:
            if cfg.party_index != cfg.n:
                raise ProtocolError("OPRF evaluations for a non-output party")
            for s in cfg.senders:
                if oprf_session_id(cfg.session_id, s) == session:
                    if len(body) != cfg.n_l:
                        raise ProtocolError("wrong evaluation count")
                    self._evals[s] = body
                    return self._advance()
            raise ProtocolError("evaluations for an unknown OPRF session")
        raise ProtocolError(f"unexpected OPRF dealer subtype {subtype:#x}")

    def _on_hint(self, src: int, payload: bytes) -> list:
        cfg = self.config
        if cfg.party_index != cfg.n or src not in cfg.senders:
            raise ProtocolError("hint sent to a non-output party")
        if src in self._hints:
            raise ProtocolError(f"duplicate hint from party {src}")
        try:
            hint = opprf.OpprfHint.from_bytes(payload)
        except ValueError as exc:
            raise ProtocolError(f"undecodable hint from party {src}: {exc}") from exc
        params = hint.okvs_table.params
        if params != okvs.OkvsParams.for_size(cfg.n_l, params.row_seed):
            raise ProtocolError(f"hint from party {src} has the wrong parameters")
        if hint.oprf_session != oprf_session_id(cfg.session_id, src):
            raise ProtocolError(f"hint from party {src} is bound to the wrong OPRF session")
        self._hints[src] = hint
        return self._advance()

    # -- progress ------------------------------------------------------------

    def _zs_complete(self) -> bool:
        cfg = self.config
        i = cfg.party_index
        if i not in cfg.subgroup:
            return True
        need = [(min(i, j), max(i, j)) for j in cfg.subgroup if j != i]
        return all(pair in self._zs_seeds for pair in need)

    def _zs_keyset(self) -> zeroshare.ZsKeySet:
        cfg = self.config
        i = cfg.party_index
        keys = {}
        for j in cfg.subgroup:
            if j != i:
                keys[j] = self._zs_seeds[(min(i, j), max(i, j))]
        return zeroshare.ZsKeySet(party_index=i, keys=keys)

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

    def _materials_ready(self) -> bool:
        cfg = self.config
        i = cfg.party_index
        if i == cfg.v:
            return len(self._share_tables) == len(cfg.group_a)
        if i in cfg.group_b:
            return len(self.groupa_keys) == len(cfg.group_a)
        return True

    def _advance(self) -> list:
        cfg = self.config
        i = cfg.party_index
        out = []
        if not self.verified:
            return out

        if i in cfg.group_a:
            self.phase = "done"
            return out

        if self._is_sender() and not self._hint_sent:
            if self._oprf_key is not None and self._zs_complete() and self._materials_ready():
                t0 = time.perf_counter()
                sid = oprf_session_id(cfg.session_id, i)
                hint = opprf.opprf_program(self.digests, self._own_values(), sid,
                                           self._oprf_key, rng=self.rng)
                out.append((cfg.n, self._env(MSG_OPPRF_HINT, hint.to_bytes())))
                self._hint_sent = True
                self.phase = "done"
                self.phase_ms["reconstruct"] = (time.perf_counter() - t0) * 1000
            return out

        if i == cfg.n:
            for s in cfg.senders:
                if s not in self._eval_requested:
                    sid = oprf_session_id(cfg.session_id, s)
                    out.append((DEALER_INDEX, self._env(
                        MSG_OPRF_DEALER, opprf.encode_eval_request(sid, self.digests))))
                    self._eval_requested.add(s)
            ready = (self._zs_complete() and self._materials_ready()
                     and len(self._hints) == len(cfg.senders)
                     and len(self._evals) == len(cfg.senders))
            if ready and self.phase != "done":
                t0 = time.perf_counter()
                own = self._own_values()
                combined = np.zeros(cfg.n_l, dtype=zeroshare.VALUE_DTYPE)
                for s in cfg.senders:
                    sid = oprf_session_id(cfg.session_id, s)
                    combined ^= opprf.opprf_query_batch(self._hints[s], self.digests, sid,
                                                        self._evals[s])
                self.intersection = {cfg.input_set[q] for q in np.flatnonzero(own == combined)}
                self.phase = "done"
                self.phase_ms["reconstruct"] = (time.perf_counter() - t0) * 1000
            return out

        return out
