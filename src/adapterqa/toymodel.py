"""Desk-scale frozen encoder-decoder with trainable bottleneck adapters.

The base model (embeddings, attention, feed-forward, layer norms, output
projection) is initialized deterministically from a seed and never updated;
adapters sit after the attention block and after the feed-forward block of
each active layer (on the post-add-and-norm stream; decoder cross-attention
carries none) and are the only trainable tensors. Forward and backward
passes are hand-written numpy so gradients can be audited against central
finite differences.

One seed's frozen base is drawn once and shared, as the paper shares one
frozen model among every modality and ablation row. ``_frozen_base`` draws
the frozen matrices (embeddings, projections, feed-forward weights) from
the seed in float64, scales and casts each once, and makes it read-only;
every model of that seed and those sizes holds the same arrays, whatever
its adapters, bottleneck or heads. Adapters draw on from the generator's
state after the base, so a build that finds its base cached gives the
bytes of one that draws it. The cache saves time only where one process
builds a seed and sizes more than once. It keeps only the last base drawn:
it outlives its last model, and holds its memory (at most one base, within
``check_toy_size``'s bound) until a toy of another seed or size is built.
Each frozen bias, gamma and beta starts as shared read-only zeros or ones
(``_constant``), and its op is skipped while it still is that array
(``Linear``, ``LayerNorm``). Up-projections start at zero, making a freshly
built adapted model bit-identical to its adapter-free twin. The adapters
are made in float64 and cast once, by their copy into ``theta``.

The trainable state is two flat vectors of the model's dtype,
``ToyModel.theta`` and ``ToyModel.theta_grad``, laid out in
``trainable_parameters()`` order: each adapter tensor's ``value`` and
``grad`` is a reshaped view of them at consecutive offsets. Backward
writes each adapter gradient in place, so the optimizer and
``randomize_adapters`` act on the two vectors with no copy in or out.

Every forward runs from a ``Prefix``: on each side, the stream that block
0's add&norm gives in the bottom layer the forward runs. Layers are
numbered as in ``AdapterSet`` (decoder after encoder), and by default the
prefix is at the lowest one that carries an adapter,
``ToyModel.lowest_trainable``. One walk, ``ToyModel._walk``, runs a stack
from any block of any layer up; ``prefix``, ``forward`` and the audit's
copy forwards all use it, and ``backward`` is its reverse, down to where
its step's forward began. The work below the lowest adapter owns no
trainable tensor and the gradient of its input feeds nothing, so
``train_adapters`` computes that prefix once, and no skip reorders any
arithmetic.

Layers hold only their parameters. A forward given a tape, a list, appends
to it what its backward needs, in walk order, and each backward takes its
entry back off the end: the residual-passing form of reverse mode. Each
training activation is held once. An adapter tapes only its bottleneck
activation, and backward hands it the stream it read: the prefix's own
array where the forward began, and elsewhere the norm's output recomputed
from the norm's entry by the same two ufuncs on the same operands. An
attention block tapes only its softmax's row maxima, row sums and scale,
and a cross-attention the encoder output that every decoder layer of a
shard shares: not its query input, q, k, v or probabilities. Its input is
the output of the block below, which backward recomputes from that
block's own entries (``ResidualBlock.output``: the norm's output, then
the adapter's up-projection from its taped activation, by
``_bottleneck``'s own ops), and at the bottom of the walk from the
prefix's stream through block 0's adapter. Attention's backward rebuilds
q, k and v from its inputs, then the probabilities, by the forward's own
products and ufuncs on the same operands, so they too are bit-identical,
and lets each temporary go at its last use. A forward's tapes go on the
``Step`` it returns, and ``backward`` takes them off it, so the model
keeps no step state; ``backward`` returns each adapter's stream, which
the audit's copy forwards read, and a training step keeps none. The loss
holds one logit-sized array: each label's log-probability is its shifted
logit, read before the array is exponentiated in place, less the log of
its row's sum, and the exponentials become the logits gradient. The
large elementwise tails (bias adds, the norm, the attention softmax, the
rectifier, the residual gradient sums) write into an array their own step
made, never into an input, so never into a tape either: an identity norm
hands on its taped array. Each keeps its ufuncs and operands, at most
swapping the two sides of a ``+`` or ``*``, so every value is unchanged.

Every step allocates its arrays anew, and so does every copy forward of
the audit. glibc would hand each freed block of 128 KiB or more back to
the kernel and fault it in again on the next step, so ``train_adapters``
and ``grad_check`` first have it keep freed blocks in the heap for the
next step to reuse (``workers.keep_freed_heap``).

``grad_check`` perturbs one adapter at a time, as one slice of ``theta``,
and evaluates a pack of its scalars, from any of its four tensors, in one
forward: the ``+eps`` and ``-eps`` copy of each, stacked on a new leading
axis that is folded into the batch axis. A pack holds as many scalars as
keep the copy forward's largest activation within ``GRAD_CHECK_BUDGET``,
and at least ``GRAD_CHECK_CHUNK`` (``grad_check_copies``), so a
narrow toy's adapter takes one or two forwards and a wide toy's packs
stay small. Only the perturbed adapter sees per-copy weights, on the
stream it read in the audit's own unperturbed forward; the walk then runs
the blocks and layers above on the copies, and that forward's prefix,
extended up the encoder where a decoder adapter needs it, gives the
streams of the other side, tiled. Every matrix product keeps the shape it
has in a one-copy forward and every loss is the mean over its own copy,
so each copy's loss is bit-identical to a separate forward.

At the toy's widths the hot path is bound by per-call overhead, so it
makes fewer calls without changing any arithmetic. Row means, sums and
maxima call numpy's ufunc reductions directly (``_row_mean`` and its
siblings). A reduction along a short last axis costs about 60 ns a row,
so ``_row_max`` takes an array of many short rows (the audit's attention
scores, the ablation toy's logits, ``train-full``'s 32-key attention) as
one elementwise maximum per column of a copy with the rows' axis leading,
and falls back to the last-axis reduction when a maximum is zero or NaN:
a maximum is exact in any order, and only there could the bytes differ.
Every causal attention of one length shares one read-only mask. The
audit's copy forwards and ``ToyModel.prefix`` pass no tape and store
nothing, since no backward follows them. Every matrix product keeps its
operands and every sum its order, so each of these is bit-identical to
the path it replaces.

At larger widths the frozen matrix products dominate a step, and BLAS
gains nothing from a second thread at the toy's shapes. So ``forward`` and
``backward`` split the batch rows into ``shard_count`` shards: one per CPU
that BLAS leaves idle (usable CPUs // BLAS threads, read from
``OPENBLAS_NUM_THREADS``, then ``OMP_NUM_THREADS``, else one per CPU,
which gives one shard), at most one per row, and each carrying at least
``SHARD_MIN_STREAM`` stream elements (rows x length x d_model). With one
shard this is the whole path. Every shard runs the model's own layers on a
tape of its own: shard 0 on the calling thread, each other shard on a
thread of its own (``workers.in_threads``). Only two results mix rows: the
loss, the mean over every shard's label log-probabilities, joined; and the
adapters' weight gradients. Each shard's adapter backward hands in its
rows of their operands, and as soon as every shard has, the adapter joins
them in shard order (a lone shard's at once, as they are) and runs the
products and sums over the whole batch, letting its shards' operands go.
The join runs on the thread of the shard that is ahead, the next to reach
an adapter first, or after the round (``_Joins``); no shard waits for
another. Everything else acts row by row: numpy runs a batched matrix
product as one product per batch slice, and row reductions and ufuncs act
per row. So every value equals the one-shard value bit for bit. Measured
on a 2-core host with one-thread OpenBLAS, two shards made a width-128,
6+6-layer step on 16 x 32 tokens 1.8x faster, while two BLAS threads on
one shard made it no faster.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .adapters import MAX_STACK_LAYERS, AdapterSet, ModelDims, adapter_params, percent_of_base
from .errors import AdapterQaError, InputError, check_int, check_positive_real
from .workers import in_threads, keep_freed_heap
from .workers import usable_cpus as _usable_cpus

BOS_ID = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LAYER_NORM_EPS = 1e-5
# randomize_adapters draws every adapter scalar from N(0, this**2).
RANDOM_ADAPTER_SCALE = 0.1
# train_adapters raises Divergence once a loss exceeds this multiple of the
# initial loss.
LOSS_GROWTH_LIMIT = 100.0
# grad_check evaluates at least this many scalars of one adapter per
# forward, as twice as many perturbed copies of the model (a +eps and a -eps
# copy of each), unless the adapter holds fewer scalars. Above that floor,
# grad_check_copies packs in as many more as keep the copy forward's largest
# activation within GRAD_CHECK_BUDGET scalars, up to the whole adapter: one
# forward per adapter of the benchmark's width-8 ablation toy, on 2 x 6 tokens.
GRAD_CHECK_CHUNK = 16
GRAD_CHECK_BUDGET = 2**15
# Most scalars a toy model may hold in its parameters, and in its largest
# activation: batch x length x max(d_ff, vocab, n_heads x length) x stacked
# copies, the feed-forward hidden, logits or attention scores of a step or
# of an audit's copy forward. 2**28 float64 scalars take 2 GiB.
MAX_TOY_SCALARS = 2**28
# Stream elements (rows x length x d_model) a batch shard must carry before a
# second shard pays off: below it, per-call overhead on two threads costs more
# than the split matmuls save (``shard_count``).
SHARD_MIN_STREAM = 8192
# _row_max reduces an array of at least MANY_ROWS rows of at most
# SHORT_ROW_WIDTH scalars as a copy with the rows' axis leading. On a 2-core
# host (numpy 2.4.6), 256 float64 rows of 6 took 7 us against 19 us along the
# last axis, and 2,048 rows 18 us against 145 us; 256 rows of 32 took 16 us
# against 24 us. Rows of 64 took as long either way at 256 and 2,048 rows,
# and at 64 rows of any width the copy gained nothing or lost.
SHORT_ROW_WIDTH = 32
MANY_ROWS = 256


# Row reductions over the last axis. ``ndarray.mean``, ``.sum`` and ``.max``
# reach these same ufunc reductions through numpy's Python wrappers, which
# cost more than the reduction itself at the toy's widths; a mean is the
# wrapper's add-reduce followed by a true divide by the count, so every
# result is bit-identical.
def _row_sum(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True)


def _row_mean(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _row_max(x: np.ndarray) -> np.ndarray:
    """Many short rows reduce as one elementwise maximum per column, over
    a copy whose leading axis runs along the rows: a maximum is exact in
    any order. Only a zero or NaN maximum can differ, in the sign of a
    +0.0/-0.0 tie or in which NaN comes out, so those arrays take the
    last-axis reduction after all."""
    width = x.shape[-1]
    if 0 < width <= SHORT_ROW_WIDTH and x.size >= MANY_ROWS * width:
        out = np.maximum.reduce(x.reshape(-1, width).T.copy(), axis=0)
        if np.logical_and.reduce(np.greater(np.abs(out), 0)):
            return out.reshape(*x.shape[:-1], 1)
    return np.maximum.reduce(x, axis=-1, keepdims=True)


def _bottleneck(x: np.ndarray, w_down: np.ndarray, b_down: np.ndarray, w_up: np.ndarray,
                b_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x + (relu(x @ w_down + b_down) @ w_up + b_up) and the rectified
    bottleneck activation. A weight may carry leading axes that stack
    copies of the adapter; they broadcast against the batch axes of ``x``."""
    hidden = np.matmul(x, w_down) + b_down
    np.maximum(hidden, 0.0, out=hidden)
    return _bottleneck_out(x, hidden, w_up, b_up), hidden


def _bottleneck_out(x: np.ndarray, hidden: np.ndarray, w_up: np.ndarray,
                    b_up: np.ndarray) -> np.ndarray:
    """x + (hidden @ w_up + b_up): ``_bottleneck``'s output from its input
    and rectified activation, so the output of a call handed those again
    is rebuilt bit for bit."""
    out = np.matmul(hidden, w_up) + b_up
    out += x
    return out


@functools.lru_cache(maxsize=16)
def _future_mask(t: int) -> np.ndarray:
    """Where a causal attention of length ``t`` masks its scores: the (t, t)
    upper triangle above the diagonal, shared by every call of one length
    and so read-only."""
    mask = np.triu(np.ones((t, t), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _constant(n: int, dtype: np.dtype, fill: float) -> np.ndarray:
    """The read-only length-``n`` array of ``fill``, shared by every frozen
    bias, gamma or beta of that width and dtype."""
    value = np.full(n, fill, dtype)
    value.flags.writeable = False
    return value


def _join(parts: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """The shards' rows of one batch array, joined in row order; a lone
    shard's array as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _join_into(inputs: dict | None, adapter: AdapterModule, shards: list[tuple]):
    """Set ``adapter``'s weight gradients from every shard's operands, in
    shard order, joined; unless ``inputs`` is None, record its joined
    input there. ``shards`` is emptied once joined, so that the shards'
    operands go before the products run."""
    hidden, d_out, x, d_hidden = map(_join, zip(*shards))
    shards.clear()
    adapter.set_grads(hidden, d_out, x, d_hidden)
    if inputs is not None:
        inputs[adapter] = x


class _Joins:
    """The adapters' weight-gradient operands of one backward: each
    adapter joins once every shard has handed in its rows.

    A lone shard's hand-in joins at once, with no lock or slot. With more,
    no shard ever waits for another. The last shard to hand in an
    adapter's rows makes it ready, and the next shard to reach an adapter
    first, so ahead of the others, runs every ready join before it goes
    on; ``finish`` runs those still ready when the round has ended. So the
    shard that is ahead does the joining, and the operands go soon after
    their last shard hands them in. Whichever thread runs a join, it joins
    in shard order, so every gradient is the one-shard gradient bit for
    bit."""

    def __init__(self, shards: int, inputs: dict | None):
        self._shards = shards
        self._inputs = inputs
        self._lock = threading.Lock()
        self._slots: dict[AdapterModule, dict[int, tuple]] = {}
        self._ready: list[tuple[AdapterModule, list[tuple]]] = []

    def hand_ins(self) -> list:
        """Each shard's hand-in, called as ``hand_in(adapter, operands)``."""
        if self._shards == 1:
            return [lambda adapter, operands: _join_into(self._inputs, adapter, [operands])]
        return [functools.partial(self.hand_in, shard) for shard in range(self._shards)]

    def hand_in(self, shard: int, adapter: AdapterModule, operands: tuple):
        """Take ``shard``'s rows of ``adapter``'s operands; a shard that is
        the first to reach ``adapter`` then runs every ready join."""
        with self._lock:
            slot = self._slots.setdefault(adapter, {})
            ahead = not slot
            slot[shard] = operands
            if len(slot) == self._shards:
                del self._slots[adapter]
                self._ready.append((adapter, [slot[k] for k in range(self._shards)]))
            ready = []
            if ahead:
                ready, self._ready = self._ready, ready
        self._run(ready)

    def finish(self):
        """Run the joins still ready once every shard has ended."""
        ready, self._ready = self._ready, []
        self._run(ready)

    def _run(self, ready: list):
        while ready:
            _join_into(self._inputs, *ready.pop())


def _blas_threads(cpus: int) -> int:
    """The threads OpenBLAS runs, from the variables it reads itself; with
    neither set, it runs one per usable CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def shard_count(batch: int, length: int, d_model: int) -> int:
    """How many row shards a forward and backward of a (batch, length)
    batch runs in: one per CPU that BLAS leaves idle, at most one per row,
    and each carrying at least ``SHARD_MIN_STREAM`` stream elements."""
    cpus = _usable_cpus()
    return max(1, min(batch, cpus // _blas_threads(cpus),
                      batch * length * d_model // SHARD_MIN_STREAM))


class InvalidConfig(InputError):
    """Toy model configuration is inconsistent."""


class Divergence(AdapterQaError):
    """Training loss became non-finite or grew past the growth limit."""


class ForwardNeeded(AdapterQaError):
    """``backward(step)`` ran on a step that already ran backward, or on
    one whose ``Prefix`` starts above ``lowest_trainable``."""


@dataclass
class ToyConfig:
    """Default configuration is small enough for finite-difference checks."""

    d_model: int = 32
    bottleneck: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    n_heads: int = 2
    vocab_size: int = 64
    max_len: int = 32
    seed: int = 6
    precision: str = "double"
    adapter_set: AdapterSet | None = None  # None means adapters on every layer

    def resolved_d_ff(self) -> int:
        return 2 * self.d_model

    def base_parameters(self) -> int:
        """The frozen scalars of the model this config builds, from its
        sizes alone: embeddings, layers and output projection."""
        d, d_ff, vocab = self.d_model, self.resolved_d_ff(), self.vocab_size
        attention, norm, ffn = 4 * (d * d + d), 2 * d, 2 * d * d_ff + d_ff + d
        return ((vocab + self.max_len) * d + d * vocab + vocab
                + self.n_encoder_layers * (attention + ffn + 2 * norm)
                + self.n_decoder_layers * (2 * attention + ffn + 3 * norm))

    def dtype(self):
        if self.precision == "double":
            return np.float64
        if self.precision == "single":
            return np.float32
        raise InvalidConfig(f"precision must be 'single' or 'double', got {self.precision!r}")


def _widest(cfg: ToyConfig, length: int) -> int:
    """The last axis of a toy's largest activation on ``length`` tokens: the
    feed-forward hidden, the logits or the attention scores."""
    return max(cfg.resolved_d_ff(), cfg.vocab_size, cfg.n_heads * length)


def grad_check_copies(cfg: ToyConfig, batch: int, length: int) -> int:
    """The perturbed copies of the model that each copy forward of
    ``grad_check`` runs on a (batch, length) batch, ``length`` the longer
    side: a ``+eps`` and a ``-eps`` copy of as many scalars as keep the
    largest activation within ``GRAD_CHECK_BUDGET`` scalars, and of at
    least ``GRAD_CHECK_CHUNK``, but of no more than one adapter holds. A
    batch that is not positive, which ``check_toy_size`` refuses, gets the
    floor."""
    activation = batch * length * _widest(cfg, length)
    pairs = GRAD_CHECK_BUDGET // (2 * activation) if activation > 0 else 0
    return 2 * min(max(GRAD_CHECK_CHUNK, pairs), adapter_params(cfg.d_model, cfg.bottleneck))


def _check_vocab_size(vocab_size: object, error: type[InputError] = InputError) -> int:
    """An ``int`` above ``BOS_ID + 1``, so content tokens exist."""
    check_int("vocab_size", vocab_size, error)
    if vocab_size <= BOS_ID + 1:
        raise error(f"vocab_size must exceed {BOS_ID + 1} to leave room for content tokens, "
                    f"got {vocab_size}")
    return vocab_size


def check_toy_size(cfg: ToyConfig, batch: int = 1, length: int = 1, copies: int = 1):
    """Every rule on a toy and its (batch, length) batch, checked before
    any array exists; each error begins with the field or argument at
    fault. The config is what ``ToyModel`` can build (``InvalidConfig``),
    the batch positive and at most ``max_len`` long (``InputError``). Then
    the parameters (with adapters on every layer) and the largest
    activation on ``copies`` stacked copies of the batch, a feed-forward
    hidden, the logits or the attention scores (``length`` is the longer
    side), may each hold at most ``MAX_TOY_SCALARS`` scalars."""
    for name in ("d_model", "bottleneck", "n_heads", "max_len"):
        check_int(name, getattr(cfg, name), InvalidConfig)
    for name in ("n_encoder_layers", "n_decoder_layers"):
        check_int(name, getattr(cfg, name), InvalidConfig, at_most=MAX_STACK_LAYERS)
    check_int("seed", cfg.seed, InvalidConfig, allow_zero=True)
    if cfg.d_model % cfg.n_heads:
        raise InvalidConfig(f"d_model must be divisible by the {cfg.n_heads} attention heads, "
                            f"got {cfg.d_model}")
    _check_vocab_size(cfg.vocab_size, InvalidConfig)
    check_int("batch", batch)
    check_int("length", length, at_most=cfg.max_len)
    dims = ModelDims(cfg.d_model, cfg.bottleneck, cfg.n_encoder_layers, cfg.n_decoder_layers)
    n_params = cfg.base_parameters() + dims.n_layers * dims.params_per_layer
    if n_params > MAX_TOY_SCALARS:
        raise InvalidConfig(
            f"a toy with d_model {cfg.d_model}, vocab_size {cfg.vocab_size} and "
            f"{cfg.n_encoder_layers}+{cfg.n_decoder_layers} layers would hold {n_params:,} "
            f"parameters; at most {MAX_TOY_SCALARS:,} are allowed")
    width = _widest(cfg, length)
    if batch * length * width * copies > MAX_TOY_SCALARS:
        raise InvalidConfig(
            f"the largest activation, batch {batch} x length {length} x max(d_ff, vocab_size, "
            f"n_heads x length) {width} x {copies} copies, would hold "
            f"{batch * length * width * copies:,} scalars; at most {MAX_TOY_SCALARS:,} are allowed")


class Parameter:
    """Named tensor with a frozen/trainable tag. A frozen tensor's ``grad``
    stays None; a trainable one's ``value`` and ``grad`` are views of the
    model's flat vectors, and each backward overwrites ``grad`` in place."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value: np.ndarray, trainable: bool = False):
        self.name = name
        self.value = value
        self.grad: np.ndarray | None = None
        self.trainable = trainable

    def __repr__(self):
        tag = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name}, shape={self.value.shape}, {tag})"


class Linear:
    """Frozen affine map; backward yields only the input gradient. The bias
    defaults to the shared zero (``_constant``), and forward skips its add
    while ``b.value`` is that array: ``x + 0.0`` differs only at ``-0.0``, a
    signed zero that reaches no loss, as every divisor and log argument is
    positive."""

    def __init__(self, name: str, w: np.ndarray, b: np.ndarray | None = None):
        self._zero = _constant(w.shape[1], w.dtype, 0.0)
        self.w = Parameter(f"{name}.w", w)
        self.b = Parameter(f"{name}.b", self._zero if b is None else b)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.matmul(x, self.w.value, out=out)
        if self.b.value is not self._zero:
            y += self.b.value
        return y

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        return np.matmul(d_out, self.w.value.T)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class LayerNorm:
    """Layer norm, then ``* gamma + beta``. gamma and beta start as the
    shared ones and zeros (``_constant``), and each op is skipped while its
    tensor is that array (exact: ``x * 1.0`` is ``x``; ``Linear`` has
    ``+ 0.0``), so an identity norm outputs the very array it tapes."""

    def __init__(self, name: str, d: int, dtype: type = np.float64):
        dtype = np.dtype(dtype)
        self._one, self._zero = _constant(d, dtype, 1.0), _constant(d, dtype, 0.0)
        self.gamma = Parameter(f"{name}.gamma", self._one)
        self.beta = Parameter(f"{name}.beta", self._zero)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        xhat = x - _row_mean(x)
        inv_std = 1.0 / np.sqrt(_row_mean(xhat * xhat) + LAYER_NORM_EPS)
        xhat *= inv_std
        if tape is None:
            return self._affine(xhat, out=xhat)
        tape.append((xhat, inv_std))
        return self._affine(xhat)

    def output(self, cache: tuple) -> np.ndarray:
        """The output of the forward that taped ``cache``, recomputed from
        it by the same ufuncs on the same operands: bit-identical."""
        return self._affine(cache[0])

    def _affine(self, xhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``xhat * gamma + beta``, skipping each identity op."""
        y = xhat
        if self.gamma.value is not self._one:
            y = out = np.multiply(y, self.gamma.value, out=out)
        if self.beta.value is not self._zero:
            y = np.add(y, self.beta.value, out=out)
        return y

    def backward(self, d_out: np.ndarray, cache: tuple) -> np.ndarray:
        """inv_std * (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat)),
        d_xhat = d_out * gamma, in a new array: never into ``d_out``."""
        xhat, inv_std = cache
        d_xhat = d_out if self.gamma.value is self._one else d_out * self.gamma.value
        mean_d = _row_mean(d_xhat)
        scratch = d_xhat * xhat
        mean_dx = _row_mean(scratch)
        d_xhat = d_xhat - mean_d
        d_xhat -= np.multiply(xhat, mean_dx, out=scratch)
        d_xhat *= inv_std
        return d_xhat

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class Attention:
    """Multi-head scaled dot-product attention with frozen projections.

    A taped forward keeps only its softmax's row statistics, and a
    cross-attention its key/value input; backward is handed the query
    input and rebuilds q, k, v and the probabilities bit for bit."""

    def __init__(self, name: str, n_heads: int, weights: list[np.ndarray],
                 causal: bool = False):
        """``weights`` are the q, k, v and output projections' matrices."""
        self.q_proj, self.k_proj, self.v_proj, self.o_proj = (
            Linear(f"{name}.{suffix}", w)
            for suffix, w in zip(("w_q", "w_k", "w_v", "w_o"), weights, strict=True))
        self.n_heads = n_heads
        self.d_head = weights[0].shape[0] // n_heads
        self.causal = causal

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, d = x.shape
        return x.reshape(b, t, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _scores(self, q: np.ndarray, k: np.ndarray, inv_sqrt: float) -> np.ndarray:
        """The scaled scores of ``q`` against ``k``, causally masked where
        this attention is causal, in an array of their own."""
        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        scores *= inv_sqrt
        if self.causal:
            np.copyto(scores, -np.inf, where=_future_mask(scores.shape[-1]))
        return scores

    def _keys_values(self, x_kv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._split(self.k_proj.forward(x_kv)), self._split(self.v_proj.forward(x_kv))

    def forward(self, x_q: np.ndarray, x_kv: np.ndarray, tape: list | None = None) -> np.ndarray:
        """A taped forward tapes the softmax's row maxima, row sums and
        scale, and ``x_kv`` where it is not ``x_q``: not q, k, v, the
        probabilities or its query input, which the block below rebuilds
        for backward (``ResidualBlock.output``). A cross-attention's
        ``x_kv`` is the encoder output that every decoder layer of a shard
        holds, so their entries share one array; a self-attention's entry
        holds None there."""
        q = self._split(self.q_proj.forward(x_q))
        k, v = self._keys_values(x_kv)
        inv_sqrt = 1.0 / math.sqrt(self.d_head)
        # The softmax is written in place: scores become the probabilities.
        attn = self._scores(q, k, inv_sqrt)
        row_max = _row_max(attn)
        attn -= row_max
        np.exp(attn, out=attn)
        row_sum = _row_sum(attn)
        attn /= row_sum
        # Each head's context is written straight into the merged heads.
        merged = np.empty(x_q.shape, x_q.dtype)
        np.matmul(attn, v, out=self._split(merged))
        if tape is not None:
            tape.append((None if x_kv is x_q else x_kv, row_max, row_sum, inv_sqrt))
        return self.o_proj.forward(merged)

    def backward(self, d_out: np.ndarray, x_q: np.ndarray, cache: tuple,
                 need_kv: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradients of the query input and of the key/value input; the
        second is None, and not computed, unless ``need_kv``. ``x_q`` is
        the forward's query input, and its key/value input where ``cache``
        holds None. The gradients of the heads are written straight into
        their merged layout.

        It rebuilds q, k and v from those inputs, then the probabilities
        from q and k, by the forward's own products and ufuncs on the same
        operands: bit for bit the forward's, with the cache left as it
        was. Each temporary goes at its last use."""
        x_kv, row_max, row_sum, inv_sqrt = cache
        q = self._split(self.q_proj.forward(x_q))
        k, v = self._keys_values(x_q if x_kv is None else x_kv)
        del cache, x_q, x_kv
        attn = self._scores(q, k, inv_sqrt)
        attn -= row_max
        np.exp(attn, out=attn)
        attn /= row_sum
        d_context = self._split(self.o_proj.backward(d_out))
        # attn * (d_attn - row_sum(d_attn * attn)), in place in d_attn.
        d_scores = np.matmul(d_context, v.transpose(0, 1, 3, 2))
        del v
        d_scores -= _row_sum(d_scores * attn)
        d_scores *= attn
        kv_shape = (d_out.shape[0], k.shape[2], d_out.shape[2])
        if need_kv:
            d_v = np.empty(kv_shape, d_out.dtype)
            np.matmul(attn.transpose(0, 1, 3, 2), d_context, out=self._split(d_v))
        del attn, d_context
        d_q = np.empty_like(d_out)
        np.matmul(d_scores, k, out=self._split(d_q))
        d_q *= inv_sqrt
        if need_kv:
            d_k = np.empty(kv_shape, d_out.dtype)
            np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=self._split(d_k))
            d_k *= inv_sqrt
        del q, k, d_scores
        d_xq = self.q_proj.backward(d_q)
        del d_q
        if not need_kv:
            return d_xq, None
        d_xkv = self.k_proj.backward(d_k)
        del d_k
        d_xkv += self.v_proj.backward(d_v)
        return d_xq, d_xkv

    def parameters(self) -> list[Parameter]:
        return [
            *self.q_proj.parameters(),
            *self.k_proj.parameters(),
            *self.v_proj.parameters(),
            *self.o_proj.parameters(),
        ]


class FeedForward:
    def __init__(self, name: str, w_in: np.ndarray, w_out: np.ndarray):
        self.lin_in = Linear(f"{name}.w_in", w_in)
        self.lin_out = Linear(f"{name}.w_out", w_out)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        pre = self.lin_in.forward(x)
        if tape is not None:
            tape.append(pre > 0)  # where the rectifier passed
        return self.lin_out.forward(np.maximum(pre, 0.0, out=pre))

    def backward(self, d_out: np.ndarray, passed: np.ndarray) -> np.ndarray:
        d_hidden = self.lin_out.backward(d_out)
        d_hidden *= passed
        return self.lin_in.backward(d_hidden)

    def parameters(self) -> list[Parameter]:
        return [*self.lin_in.parameters(), *self.lin_out.parameters()]


class AdapterModule:
    """The one adapter: a trainable residual bottleneck (``_bottleneck``)
    with a hand-written backward pass. A zero up-projection makes it start
    as an exact identity map. It runs once per forward, so ``backward``
    writes its four gradients in place rather than accumulating them.

    A forward tapes only the rectified bottleneck activation. Its input
    is already held below it, in the norm's entry or the forward's
    ``Prefix``, so ``backward`` is handed that input rather than taping a
    second copy.

    The four weight gradients sum over every row of the batch. Each
    shard's ``backward`` hands in its rows of their operands, and once
    every shard has, ``set_grads`` runs on the rows joined in shard order
    (``_Joins``), whatever the number of shards.
    """

    def __init__(self, name: str, d_model: int, bottleneck: int, rng: np.random.Generator):
        w_down = rng.standard_normal((d_model, bottleneck)) / np.sqrt(d_model)
        self.w_down = Parameter(f"{name}.down.w", w_down, trainable=True)
        self.b_down = Parameter(f"{name}.down.b", np.zeros(bottleneck), trainable=True)
        self.w_up = Parameter(f"{name}.up.w", np.zeros((bottleneck, d_model)), trainable=True)
        self.b_up = Parameter(f"{name}.up.b", np.zeros(d_model), trainable=True)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out, hidden = _bottleneck(x, self.w_down.value, self.b_down.value,
                                  self.w_up.value, self.b_up.value)
        if tape is not None:
            tape.append(hidden)
        return out

    def output(self, x: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """The output of the forward that read ``x`` and taped ``hidden``,
        rebuilt from them by ``_bottleneck_out``: bit-identical."""
        return _bottleneck_out(x, hidden, self.w_up.value, self.b_up.value)

    def backward(self, d_out: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                 hand_in) -> np.ndarray:
        """Gradient of the input; ``x`` and ``hidden`` are the input and the
        taped activation of one forward. The weight gradients' operands
        go to ``hand_in(self, operands)``, for ``set_grads`` on every
        shard's rows."""
        d_hidden = np.matmul(d_out, self.w_up.value.T)
        d_hidden *= hidden > 0
        d_x = np.matmul(d_hidden, self.w_down.value.T)
        d_x += d_out
        hand_in(self, (hidden, d_out, x, d_hidden))
        return d_x

    def set_grads(self, hidden: np.ndarray, d_out: np.ndarray, x: np.ndarray,
                  d_hidden: np.ndarray):
        """Write the four weight gradients from their operands over every
        row of the batch."""
        flat_d_out = d_out.reshape(-1, d_out.shape[-1])
        self.w_up.grad[...] = np.matmul(hidden.reshape(-1, hidden.shape[-1]).T, flat_d_out)
        self.b_up.grad[...] = np.add.reduce(flat_d_out, axis=0)
        flat_d_hidden = d_hidden.reshape(-1, d_hidden.shape[-1])
        self.w_down.grad[...] = np.matmul(x.reshape(-1, x.shape[-1]).T, flat_d_hidden)
        self.b_down.grad[...] = np.add.reduce(flat_d_hidden, axis=0)

    def parameters(self) -> list[Parameter]:
        return [self.w_down, self.b_down, self.w_up, self.b_up]


class ResidualBlock:
    """Sublayer, then add & norm, then an optional adapter.

    The sublayer is a ``FeedForward`` or an ``Attention``; attention
    attends to its own input, or to ``memory`` when ``cross`` is set.
    A forward tapes the sublayer's, the norm's and the adapter's entries,
    in that order; ``backward`` takes them back and hands the adapter the
    stream it read, recomputed from the norm's entry. Its own output is
    recomputed from the same entries (``output``), so an attention above
    it is handed its input rather than taping it.
    """

    def __init__(self, sublayer: Attention | FeedForward, norm: LayerNorm, cross: bool = False):
        self.sublayer = sublayer
        self.norm = norm
        self.cross = cross
        self.adapter: AdapterModule | None = None

    def normed(self, x: np.ndarray, memory: np.ndarray | None = None,
               tape: list | None = None) -> np.ndarray:
        """Sublayer, then add & norm: the stream the adapter reads."""
        if isinstance(self.sublayer, FeedForward):
            out = self.sublayer.forward(x, tape)
        else:
            out = self.sublayer.forward(x, memory if self.cross else x, tape)
        out += x
        return self.norm.forward(out, tape)

    def forward(self, x: np.ndarray, memory: np.ndarray | None = None,
                tape: list | None = None) -> np.ndarray:
        h = self.normed(x, memory, tape)
        return h if self.adapter is None else self.adapter.forward(h, tape)

    def output(self, tape: list, normed: np.ndarray | None = None) -> np.ndarray:
        """The output of the forward whose entries are on top of ``tape``,
        recomputed from them by the norm's and the adapter's own ufuncs and
        products on the same operands: bit for bit. ``normed`` is the
        norm's output where the forward began at this block's adapter, on
        a ``Prefix``'s stream, and the norm taped nothing."""
        if normed is None:
            normed = self.norm.output(tape[-1] if self.adapter is None else tape[-2])
        return normed if self.adapter is None else self.adapter.output(normed, tape[-1])

    def backward(self, d_out: np.ndarray, tape: list, hand_in, below,
                 d_memory: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the input, taking this block's entries off ``tape``;
        cross-attention adds the gradient of ``memory`` into ``d_memory``,
        and skips it when that is None. ``hand_in`` takes the adapter's
        operands. An attention is handed its input as ``below(tape)``
        gives it once this block's entries are off: the output of the
        block below, recomputed from that block's entries."""
        if self.adapter is not None:
            hidden = tape.pop()
            d_out = self.adapter.backward(d_out, self.norm.output(tape[-1]), hidden, hand_in)
        d_sum = self.norm.backward(d_out, tape.pop())
        if isinstance(self.sublayer, FeedForward):
            d_x = self.sublayer.backward(d_sum, tape.pop())
            d_x += d_sum
            return d_x
        cache = tape.pop()
        d_x, d_kv = self.sublayer.backward(d_sum, below(tape), cache,
                                           need_kv=not self.cross or d_memory is not None)
        d_x += d_sum
        if not self.cross:
            d_x += d_kv
        elif d_memory is not None:
            d_memory += d_kv
        return d_x


class Layer:
    """One encoder layer (self-attention, feed-forward) or decoder layer
    (self-attention, cross-attention, feed-forward) as a stack of blocks."""

    def __init__(self, name: str, blocks: list[ResidualBlock]):
        self.name = name
        self.blocks = blocks

    @classmethod
    def build(cls, name: str, cfg: ToyConfig,
              weights: tuple[tuple[np.ndarray, ...], ...]) -> "Layer":
        """The layer of one of ``_frozen_base``'s groups: the self-attention's
        four matrices, for a decoder layer the cross-attention's four, then
        the feed-forward's two. A decoder layer's self-attention is causal."""
        self_attn, *cross_attn, (w_in, w_out) = weights
        decoder = bool(cross_attn)

        def block(sublayer: Attention | FeedForward, norm: str, cross: bool = False):
            return ResidualBlock(sublayer, LayerNorm(f"{name}.{norm}", cfg.d_model, cfg.dtype()),
                                 cross)

        return cls(name, [
            block(Attention(f"{name}.self_attn", cfg.n_heads, self_attn, causal=decoder),
                  "norm_self" if decoder else "norm_attn"),
            *(block(Attention(f"{name}.cross_attn", cfg.n_heads, w), "norm_cross", cross=True)
              for w in cross_attn),
            block(FeedForward(f"{name}.ffn", w_in, w_out), "norm_ffn"),
        ])

    def add_adapters(self, cfg: ToyConfig, rng: np.random.Generator):
        """Adapters after the self-attention block and after the
        feed-forward block; cross-attention carries none."""
        self.blocks[0].adapter = AdapterModule(
            f"{self.name}.adapter_attn", cfg.d_model, cfg.bottleneck, rng)
        self.blocks[-1].adapter = AdapterModule(
            f"{self.name}.adapter_ffn", cfg.d_model, cfg.bottleneck, rng)

    def forward(self, x: np.ndarray, memory: np.ndarray | None = None,
                tape: list | None = None, first: int = 0) -> np.ndarray:
        """Run the blocks from block ``first`` up; ``x`` enters that block."""
        for block in self.blocks[first:]:
            x = block.forward(x, memory, tape)
        return x

    def backward(self, d_out: np.ndarray, tape: list, hand_in, below,
                 d_memory: np.ndarray | None = None, first: int = 0) -> np.ndarray:
        """Gradient of the stream that entered block ``first``, taking the
        blocks' entries off ``tape`` and handing each adapter's operands to
        ``hand_in``; a decoder layer also adds the gradient of ``memory``
        into ``d_memory`` unless that is None. ``below(tape)`` gives the
        stream that entered block ``first`` once the blocks' entries are
        off; each block above is handed the output of the block below it,
        recomputed from that block's entries (``ResidualBlock.output``)."""
        for index in reversed(range(first, len(self.blocks))):
            d_out = self.blocks[index].backward(
                d_out, tape, hand_in, self.blocks[index - 1].output if index > first else below,
                d_memory)
        return d_out

    def parameters(self) -> list[Parameter]:
        """Each block's frozen tensors, then each adapter's tensors."""
        modules = [m for b in self.blocks for m in (b.sublayer, b.norm)]
        modules += [b.adapter for b in self.blocks if b.adapter is not None]
        return [p for m in modules for p in m.parameters()]


@dataclass(frozen=True, eq=False)
class Prefix:
    """The streams of a model at layer ``start`` for one pair of id arrays
    (``ToyModel.prefix``): on each side, block 0's add&norm output in the
    first layer that runs from ``start``, below that block's adapter.

    Every forward runs from a prefix, starting at those adapters. Only
    frozen work produced the streams, so the result is bit-identical to a
    forward from any other prefix as long as that work is unchanged.
    ``start`` runs from 0 to the number of layers; at the top, ``dec`` is
    the decoder output. Only the model that made it may run from it. Like
    a ``Step``, a prefix compares and hashes by identity.
    """

    start: int
    source_ids: np.ndarray
    target_ids: np.ndarray
    enc: np.ndarray  # block 0 of encoder layer ``start`` normed, or the encoder output
    dec: np.ndarray  # block 0 of decoder layer ``max(start - n_encoder_layers, 0)`` normed
    _model: ToyModel = field(repr=False)

    def check(self, model: ToyModel, source_ids, target_ids):
        if self._model is not model:
            raise InputError("prefix was computed by another model")
        for mine, theirs in ((self.source_ids, source_ids), (self.target_ids, target_ids)):
            if mine is not theirs and not np.array_equal(mine, theirs):
                raise InputError("prefix was computed from other source/target ids")


@dataclass(eq=False)
class Step:
    """One ``ToyModel.forward``: its loss, its logits and what a backward
    on the same model takes off it. It unpacks as ``(loss, logits)``."""

    loss: float
    logits: np.ndarray
    _prefix: Prefix = field(repr=False)
    _rows: list[slice] = field(repr=False)  # the rows of each of its shards
    _tapes: list[list] | None = field(repr=False)  # one per shard, until backward
    _model: ToyModel = field(repr=False)
    _keep_inputs: bool = field(default=True, repr=False)  # backward returns adapter inputs

    def __iter__(self):
        return iter((self.loss, self.logits))


def _label_log_probs(logits: np.ndarray,
                     labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Each label's log-probability over the last axis of ``logits``, in
    the row-major order of ``labels``; then the shifted exponentials, in
    one array that first holds the shifted logits, their row sums, and the
    index of the labels' entries folded to (positions, vocab). A label's
    shifted logit less the log of its row's sum is the subtraction a full
    log-softmax makes there, so no log-softmax array is needed."""
    exp_z = logits - _row_max(logits)
    at_labels = (np.arange(labels.size), labels.reshape(-1))
    at = exp_z.reshape(labels.size, -1)[at_labels]
    np.exp(exp_z, out=exp_z)
    sum_exp = _row_sum(exp_z)
    return at - np.log(sum_exp).reshape(-1), exp_z, sum_exp, at_labels


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray,
                        n_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """Each label's log-probability and the logits gradient, written over
    the shifted exponentials, for rows of a batch of ``n_labels`` labels in
    all; the loss is the negated mean of every row's log-probabilities."""
    picked, d_logits, sum_exp, at_labels = _label_log_probs(logits, labels)
    d_logits /= sum_exp
    d_flat = d_logits.reshape(labels.size, -1)
    d_flat[at_labels] -= 1.0
    d_flat /= n_labels
    return picked, d_logits


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all positions plus the logits gradient,
    written over the shifted exponentials."""
    picked, d_logits = _cross_entropy_rows(logits, labels, labels.size)
    return float(-picked.mean()), d_logits


@functools.lru_cache(maxsize=1)
def _frozen_base(seed: int, d_model: int, d_ff: int, vocab_size: int, max_len: int,
                 n_encoder_layers: int, n_decoder_layers: int,
                 dtype: type) -> tuple:
    """The frozen matrices of every toy of this seed and these sizes
    (``d_ff`` follows from ``d_model``), grouped as ``ToyModel`` holds
    them, and the state of the seed's generator after the last of them:
    ``((tokens, positions), encoder, decoder, output, state)``.

    This is the one place that fixes the order of the draws, in float64:
    the token and position embeddings; per encoder layer a group of the
    self-attention's q, k, v and output projections, then the
    feed-forward's ``(w_in, w_out)``; per decoder layer the self-attention's
    four, the cross-attention's four, then ``(w_in, w_out)``; last the
    output projection. Each is scaled and cast to ``dtype`` once, and is
    read-only, since every model built from these arguments holds the same
    arrays. The key leaves out what sets no draw: the bottleneck, the heads
    and the adapter set. The cost of keeping the last base is in the module
    docstring."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d_model)

    def frozen(w: np.ndarray) -> np.ndarray:
        w = w.astype(dtype, copy=False)
        w.flags.writeable = False
        return w

    def attention() -> tuple[np.ndarray, ...]:
        return tuple(frozen(rng.standard_normal((d_model, d_model)) * scale) for _ in range(4))

    def layer(decoder: bool) -> tuple[tuple[np.ndarray, ...], ...]:
        return (attention(), *([attention()] if decoder else []),
                (frozen(rng.standard_normal((d_model, d_ff)) / math.sqrt(d_model)),
                 frozen(rng.standard_normal((d_ff, d_model)) / math.sqrt(d_ff))))

    embeddings = (frozen(rng.standard_normal((vocab_size, d_model)) / math.sqrt(d_model)),
                  frozen(rng.standard_normal((max_len, d_model)) / math.sqrt(d_model)))
    encoder = tuple(layer(False) for _ in range(n_encoder_layers))
    decoder = tuple(layer(True) for _ in range(n_decoder_layers))
    output = frozen(rng.standard_normal((d_model, vocab_size)) / math.sqrt(d_model))
    return embeddings, encoder, decoder, output, rng.bit_generator.state


class ToyModel:
    """Frozen encoder-decoder plus trainable adapters; a configuration it
    cannot build raises ``InvalidConfig`` before any weight is drawn."""

    def __init__(self, cfg: ToyConfig):
        check_toy_size(cfg)
        dtype = cfg.dtype()
        self.cfg = cfg

        # The seed's shared base, drawn before any adapter, so the frozen
        # model is identical for every adapter configuration under one seed.
        (tokens, positions), encoder, decoder, output, state = _frozen_base(
            cfg.seed, cfg.d_model, cfg.resolved_d_ff(), cfg.vocab_size, cfg.max_len,
            cfg.n_encoder_layers, cfg.n_decoder_layers, dtype)
        self.tok_emb = Parameter("embed.tokens", tokens)
        self.pos_emb = Parameter("embed.positions", positions)
        self.encoder = [Layer.build(f"encoder.{i}", cfg, w) for i, w in enumerate(encoder)]
        self.decoder = [Layer.build(f"decoder.{i}", cfg, w) for i, w in enumerate(decoder)]
        self.out_proj = Linear("output", output)
        self.dims = ModelDims(cfg.d_model, cfg.bottleneck, cfg.n_encoder_layers,
                              cfg.n_decoder_layers, adapters_per_layer=2,
                              base_total_params=cfg.base_parameters())

        self.adapter_set = (
            cfg.adapter_set if cfg.adapter_set is not None else AdapterSet.full(self.dims)
        ).check(self.dims)
        # Adapter-set indices number the decoder layers after the encoder's.
        active = self.adapter_set.encoder_layers | self.adapter_set.decoder_layers
        # The adapters draw on from where the base's draws ended.
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state
        for index, layer in enumerate([*self.encoder, *self.decoder]):
            if index in active:
                layer.add_adapters(cfg, rng)
        self.n_layers = len(self.encoder) + len(self.decoder)
        # Index of the lowest layer with a trainable tensor; n_layers when
        # nothing is trainable.
        self.lowest_trainable = min(active, default=self.n_layers)
        # Each trainable tensor and its gradient views the two flat vectors;
        # the copy into theta is the adapters' one cast.
        trainable = self.trainable_parameters()
        self.theta = np.zeros(sum(p.value.size for p in trainable), dtype)
        self.theta_grad = np.zeros_like(self.theta)
        start = 0
        for param in trainable:
            part = slice(start, start + param.value.size)
            self.theta[part] = param.value.reshape(-1)
            param.value = self.theta[part].reshape(param.value.shape)
            param.grad = self.theta_grad[part].reshape(param.value.shape)
            start = part.stop

    def parameters(self) -> list[Parameter]:
        params = [self.tok_emb, self.pos_emb]
        for layer in [*self.encoder, *self.decoder]:
            params.extend(layer.parameters())
        params.extend(self.out_proj.parameters())
        return params

    def adapters(self) -> Iterator[tuple[int, int, AdapterModule]]:
        """Each adapter, from the bottom up, with the index of its layer
        and of its block in that layer."""
        for index, layer in enumerate([*self.encoder, *self.decoder]):
            for block_index, block in enumerate(layer.blocks):
                if block.adapter is not None:
                    yield index, block_index, block.adapter

    def trainable_parameters(self) -> list[Parameter]:
        return [p for _, _, adapter in self.adapters() for p in adapter.parameters()]

    def randomize_adapters(self, seed: int):
        """Replace every adapter tensor with random values (for gradient
        audits; zero up-projections would hide the down-projection
        gradients). The adapters are the only trainable tensors. ``seed``
        is a non-negative ``int``."""
        rng = np.random.default_rng(check_int("seed", seed, allow_zero=True))
        # Assignment casts to the model's dtype.
        self.theta[...] = rng.standard_normal(self.theta.size) * RANDOM_ADAPTER_SCALE

    def _check_ids(self, ids: np.ndarray, what: str) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.size == 0:
            raise InputError(f"{what} ids must be a nonempty (batch, length) array, got shape {ids.shape}")
        if ids.dtype.kind not in "iu":  # signed or unsigned integers; a bool array is a mask
            raise InputError(f"{what} ids must be integers, got dtype {ids.dtype}")
        check_int(f"{what} length", ids.shape[1], at_most=self.cfg.max_len)
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise InputError(f"{what} ids out of vocabulary range [0, {self.cfg.vocab_size})")
        return ids

    def _check_pair(self, source_ids: np.ndarray,
                    target_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        source_ids = self._check_ids(source_ids, "source")
        target_ids = self._check_ids(target_ids, "target")
        if source_ids.shape[0] != target_ids.shape[0]:
            raise InputError("source and target batch sizes differ")
        return source_ids, target_ids

    def _embed(self, ids: np.ndarray) -> np.ndarray:
        return self.tok_emb.value[ids] + self.pos_emb.value[: ids.shape[1]][None, :, :]

    def _bottoms(self, start: int) -> tuple[int, int]:
        """The layer of each stack in which a ``Prefix`` at layer ``start``
        ends the stream, or the stack's length for its output."""
        n_enc = len(self.encoder)
        return min(start, n_enc), max(start - n_enc, 0)

    @staticmethod
    def _walk(stack: list[Layer], x: np.ndarray, at: int, first: int = 0, stop: int | None = None,
              memory: np.ndarray | None = None, tape: list | None = None) -> np.ndarray:
        """Run ``stack`` from block ``first`` of layer ``at``, where ``x``
        enters, up to layer ``stop``, taping caches only onto ``tape``."""
        for layer in stack[at:stop]:
            x = layer.forward(x, memory, tape, first)
            first = 0
        return x

    @staticmethod
    def _resume(stack: list[Layer], at: int, x: np.ndarray,
                tape: list | None = None) -> np.ndarray:
        """``x``, a prefix's stream in layer ``at`` of ``stack``, after the
        adapter of block 0 there: the stream that enters block 1."""
        adapter = stack[at].blocks[0].adapter if at < len(stack) else None
        return x if adapter is None else adapter.forward(x, tape)

    def prefix(self, source_ids: np.ndarray, target_ids: np.ndarray, start: int) -> Prefix:
        """The ``Prefix`` at layer ``start`` for these ids. It tapes
        nothing, so the tapes of every step stay as they are."""
        check_int("prefix start", start, allow_zero=True, at_most=self.n_layers)
        source_ids, target_ids = self._check_pair(source_ids, target_ids)
        enc_at, dec_at = self._bottoms(start)
        enc_x = self._walk(self.encoder, self._embed(source_ids), 0, stop=enc_at)
        # Embedded once the encoder is done, so the two embeddings are never
        # held together.
        bos = np.full((target_ids.shape[0], 1), BOS_ID, dtype=target_ids.dtype)
        dec_x = self._embed(np.concatenate([bos, target_ids[:, :-1]], axis=1))
        dec_x = self._walk(self.decoder, dec_x, 0, stop=dec_at, memory=enc_x)
        if enc_at < len(self.encoder):
            enc_x = self.encoder[enc_at].blocks[0].normed(enc_x)
        if dec_at < len(self.decoder):
            dec_x = self.decoder[dec_at].blocks[0].normed(dec_x)
        return Prefix(start, source_ids, target_ids, enc_x, dec_x, self)

    def forward(self, source_ids: np.ndarray, target_ids: np.ndarray,
                prefix: Prefix | None = None) -> Step:
        """Teacher-forced cross-entropy and logits, as a ``Step`` to run back.

        The forward runs from ``prefix``, which this model must have made
        from the same ids, or by default from the prefix at
        ``lowest_trainable``. Each is bit-identical to a forward from layer
        0 while the frozen work below is unchanged. Only the blocks the
        forward runs tape a cache, onto the step; the model keeps nothing.

        The rows run in ``shard_count`` shards (``_forward_rows``), each on
        a tape of its own, and the loss is the mean over their label
        log-probabilities, joined. Each shard takes the softmax of its own
        rows: on a 2-core host, one softmax of the whole batch on the
        calling thread made the benchmark's ``train-full`` steps 2.7% slower.
        """
        source_ids, target_ids = self._check_pair(source_ids, target_ids)
        if prefix is None:
            prefix = self.prefix(source_ids, target_ids, self.lowest_trainable)
        prefix.check(self, source_ids, target_ids)
        batch = target_ids.shape[0]
        n = shard_count(batch, max(source_ids.shape[1], target_ids.shape[1]), self.cfg.d_model)
        rows = [slice(k * batch // n, (k + 1) * batch // n) for k in range(n)]
        logits = np.empty((*target_ids.shape, self.cfg.vocab_size), self.theta.dtype)
        tapes: list[list] = [[] for _ in rows]
        picked = in_threads([functools.partial(self._forward_rows, prefix, part, logits, tape)
                             for part, tape in zip(rows, tapes)])
        return Step(float(-_join(picked).mean()), logits, prefix, rows, tapes, self)

    def _forward_rows(self, prefix: Prefix, rows: slice, logits: np.ndarray,
                      tape: list) -> np.ndarray:
        """The forward of rows ``rows`` of ``prefix``'s batch, onto ``tape``:
        writes their logits into those rows of ``logits``, tapes their
        logits gradient last and returns their label log-probabilities."""
        enc_at, dec_at = self._bottoms(prefix.start)
        enc_x = self._resume(self.encoder, enc_at, prefix.enc[rows], tape)
        enc_x = self._walk(self.encoder, enc_x, enc_at, 1, tape=tape)
        dec_x = self._resume(self.decoder, dec_at, prefix.dec[rows], tape)
        dec_x = self._walk(self.decoder, dec_x, dec_at, 1, memory=enc_x, tape=tape)
        out = self.out_proj.forward(dec_x, out=logits[rows])
        picked, d_logits = _cross_entropy_rows(out, prefix.target_ids[rows],
                                               prefix.target_ids.size)
        tape.append(d_logits)
        return picked

    def backward(self, step: Step) -> dict[AdapterModule, np.ndarray]:
        """Set the gradient of every trainable parameter from ``step``, a
        forward of this model; frozen tensors get none.

        The reverse of the step's walk: it stops at the step's ``Prefix``,
        handing the adapter of each block 0 there the prefix's array. The
        work left out owns nothing trainable and its input gradients feed
        nothing, so the gradients are those of a reverse pass through every
        layer, bit for bit. With nothing trainable it returns at once. It
        takes the step's tapes first, so a step runs back once: a second
        backward, or one from a prefix above ``lowest_trainable``, raises
        ``ForwardNeeded`` and writes no gradient.

        Each shard of the step runs back on its own tape
        (``_backward_rows``), taking each entry off once it has used it.
        Each attention is handed its input, the output of the block below
        recomputed from that block's entries; at the bottom of the walk,
        the prefix's stream through block 0's adapter. Each adapter's
        backward hands in its rows of its weight-gradient operands, and
        the adapter joins them as soon as every shard has (``_Joins``), on
        the thread of a shard that is ahead, or after the round; a lone
        shard's operands join at once, as they are.

        Returns each adapter's joined input, keyed by adapter: the stream
        it read in the step's forward, bit for bit. With one shard, the
        input of a block 0 where the ``Prefix`` ends a stream is a view of
        the prefix's array. A training step (``forward_backward``) keeps
        none, and returns an empty dict.
        """
        if step._model is not self:
            raise InputError("step was run by another model")
        tapes, step._tapes, prefix = step._tapes, None, step._prefix
        if tapes is None:
            raise ForwardNeeded("this step already ran backward")
        if prefix.start > self.lowest_trainable:
            raise ForwardNeeded(f"backward() needs a forward from a prefix at or below layer "
                                f"{self.lowest_trainable}, the lowest adapter; this step "
                                f"began at layer {prefix.start}")
        if self.lowest_trainable == self.n_layers:
            return {}
        inputs = {} if step._keep_inputs else None
        joins = _Joins(len(tapes), inputs)
        in_threads([functools.partial(self._backward_rows, prefix, rows, tape, hand_in)
                    for rows, tape, hand_in in zip(step._rows, tapes, joins.hand_ins())])
        joins.finish()
        return {} if inputs is None else inputs

    def _backward_rows(self, prefix: Prefix, rows: slice, tape: list, hand_in):
        """The backward of rows ``rows`` of the batch, taking every entry
        off their ``tape``. Each adapter hands its weight gradients'
        operands to ``hand_in``."""
        d = self.out_proj.backward(tape.pop())
        enc_at, dec_at = self._bottoms(prefix.start)
        enc, dec = prefix.enc[rows], prefix.dec[rows]
        d_enc = np.zeros_like(enc) if enc_at < len(self.encoder) else None
        for stack, at, x, d_memory in ((self.decoder, dec_at, dec, d_enc),
                                       (self.encoder, enc_at, enc, None)):
            if d is None:  # no gradient of the encoder output is needed
                return
            bottom = stack[at].blocks[0]
            for index in reversed(range(at, len(stack))):
                below = (functools.partial(bottom.output, normed=x) if index == at
                         else stack[index - 1].blocks[-1].output)
                d = stack[index].backward(d, tape, hand_in, below, d_memory,
                                          1 if index == at else 0)
            if bottom.adapter is not None:
                bottom.adapter.backward(d, x, tape.pop(), hand_in)
            d = d_enc

    def forward_backward(self, source_ids: np.ndarray, target_ids: np.ndarray,
                         prefix: Prefix | None = None) -> float:
        step = self.forward(source_ids, target_ids, prefix)
        step.logits = None  # freed before backward
        step._keep_inputs = False  # and each adapter's joined input as it joins
        self.backward(step)
        return step.loss

    def _copy_losses(self, prefix: Prefix, index: int, block: int, h: np.ndarray,
                     weights: list[np.ndarray]) -> np.ndarray:
        """Loss of each copy of the model whose adapter in block ``block``
        of layer ``index`` runs on ``weights`` (in ``parameters()`` order,
        any of them stacked per copy).

        ``h`` is the (batch, length, d) stream that adapter reads, and
        ``prefix`` (``_copy_prefix``) holds what the copies read of the
        other side: decoder layer 0's stream for an encoder adapter, the
        encoder output for a decoder adapter. The copies are folded into
        the batch axis, copy-major, and the prefix's streams are tiled to
        match; the walk from the adapter's next block tapes nothing, and
        each loss is the mean over its own copy.
        """
        out, _ = _bottleneck(h, *weights)
        n_copies = out.shape[0]
        x = out.reshape(n_copies * h.shape[0], *h.shape[1:])
        n_enc = len(self.encoder)
        if index < n_enc:
            enc_x = self._walk(self.encoder, x, index, block + 1)
            dec_x = np.tile(self._resume(self.decoder, 0, prefix.dec), (n_copies, 1, 1))
            dec_x = self._walk(self.decoder, dec_x, 0, 1, memory=enc_x)
        else:
            dec_x = self._walk(self.decoder, x, index - n_enc, block + 1,
                               memory=np.tile(prefix.enc, (n_copies, 1, 1)))
        picked = _label_log_probs(self.out_proj.forward(dec_x),
                                  np.tile(prefix.target_ids, (n_copies, 1)))[0]
        # One contiguous row per copy, so each mean sums its row in the
        # order of a one-copy loss.
        return -picked.reshape(n_copies, -1).mean(axis=1)

    def _copy_prefix(self, prefix: Prefix) -> Prefix:
        """What ``_copy_losses`` reads of the other side, from ``prefix`` at
        ``lowest_trainable``. Below the decoder, that prefix holds decoder
        layer 0's stream, and where a decoder adapter needs the encoder
        output, the encoder's walk from the prefix up adds it: the ``Prefix``
        at the decoder, with no walk from the embeddings. At or above the
        decoder, it holds the encoder output and no encoder adapter exists."""
        start = prefix.start
        if start >= len(self.encoder) or not self.adapter_set.decoder_layers:
            return prefix
        enc = self._walk(self.encoder, self._resume(self.encoder, start, prefix.enc), start, 1)
        return replace(prefix, start=len(self.encoder), enc=enc)


def build_toy_model(cfg: ToyConfig) -> ToyModel:
    """Build the model deterministically; ``ToyModel`` checks ``cfg``.
    Models of one seed and sizes share one read-only frozen base, drawn
    by the first of them; the last base drawn stays cached after its
    models are gone, until a toy of another seed or size is built. The
    identity biases and norms are skipped, exactly (``Linear``)."""
    return ToyModel(cfg)


@dataclass(frozen=True)
class TensorInfo:
    name: str
    trainable: bool
    n_elements: int


@dataclass(frozen=True)
class FreezeReport:
    tensors: list[TensorInfo]
    trainable_total: int
    frozen_total: int

    @property
    def trainable_percent_of_base(self) -> float:
        return percent_of_base(self.trainable_total, self.frozen_total)

    def to_json_dict(self) -> dict:
        return {
            "tensors": [
                {"name": t.name, "tag": "trainable" if t.trainable else "frozen",
                 "elements": t.n_elements}
                for t in self.tensors
            ],
            "trainable_total": self.trainable_total,
            "frozen_total": self.frozen_total,
            "trainable_percent_of_base": self.trainable_percent_of_base,
        }


def freeze_report(model: ToyModel) -> FreezeReport:
    """Per-tensor tags and element counts plus trainable/frozen totals."""
    tensors = [TensorInfo(p.name, p.trainable, p.value.size) for p in model.parameters()]
    return FreezeReport(
        tensors=tensors,
        trainable_total=sum(t.n_elements for t in tensors if t.trainable),
        frozen_total=sum(t.n_elements for t in tensors if not t.trainable),
    )


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_parameter: str
    n_params_checked: int
    eps: float
    per_parameter: dict[str, float]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _relative_errors(model: ToyModel, prefix: Prefix, index: int, block: int, h: np.ndarray,
                     adapter: AdapterModule, at: int, copies: int, eps: float) -> np.ndarray:
    """Relative error of the central difference of every scalar of
    ``adapter``, the adapter in block ``block`` of layer ``index``, in the
    order of its slice of ``model.theta``, which begins at ``at``. Each
    forward runs ``copies`` copies: a ``+eps`` and a ``-eps`` copy of each
    of the next ``copies // 2`` scalars, from any of the adapter's tensors.
    Only the tensors a forward perturbs are stacked per copy. ``h`` is the
    stream that adapter reads."""
    params = adapter.parameters()
    ends = np.cumsum([p.value.size for p in params])
    flat = model.theta[at:at + ends[-1]]
    analytic = model.theta_grad[at:at + ends[-1]]
    errors = np.empty(flat.size)
    for start in range(0, flat.size, copies // 2):
        stop = min(start + copies // 2, flat.size)
        scalars = np.arange(start, stop)
        rows = scalars - start
        stacked = np.repeat(flat[None], 2 * rows.size, axis=0)
        stacked[2 * rows, scalars] = flat[scalars] + eps
        stacked[2 * rows + 1, scalars] = flat[scalars] - eps
        # Copies broadcast against the (batch, length) axes of ``h``.
        weights = [stacked[:, end - p.value.size:end].reshape(
                       2 * rows.size, *(1,) * (h.ndim - p.value.ndim), *p.value.shape)
                   if start < end and end - p.value.size < stop else p.value
                   for p, end in zip(params, ends)]
        losses = model._copy_losses(prefix, index, block, h, weights)
        numeric = (losses[0::2] - losses[1::2]) / (2.0 * eps)
        a = analytic[scalars]
        errors[scalars] = (np.abs(a - numeric)
                           / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-3))
    return errors


def grad_check(model: ToyModel, source_ids: np.ndarray, target_ids: np.ndarray,
               eps: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of every trainable scalar against central
    finite differences.

    The relative error uses an absolute floor so finite-difference noise on
    near-zero gradients is not amplified. Run after ``randomize_adapters``:
    with zero up-projections the down-projection gradients vanish and the
    check is vacuous there. Double precision only: float32 central
    differences cannot resolve these gradients.

    Tensors are audited in ``trainable_parameters()`` order, one adapter at
    a time: its four tensors sit side by side in ``ToyModel.theta``, and
    each tensor's errors are its part of the adapter's. Each adapter reads
    the stream it read in the unperturbed forward that gives the analytic
    gradients, as that forward's ``backward`` returns it; the copy forwards
    tape nothing. That forward runs from the ``Prefix`` at the lowest
    adapter, and the same prefix, extended up the encoder where a decoder
    adapter needs its output (``ToyModel._copy_prefix``), gives the
    streams of the other side, which no adapter of this side changes. One forward then evaluates
    ``grad_check_copies // 2`` scalars of the adapter, from any of its
    tensors, as a ``+eps`` and a ``-eps`` copy of each, stacked on an outer
    axis (``_copy_losses``). Every matrix product and reduction keeps its
    one-copy shape and order, so each loss is that of a full forward, bit
    for bit. A step so large that a copy overflows gives a NaN error, which
    fails the audit; numpy's warnings on the way are silenced. Before any
    forward it checks ``eps``, the precision, the ids and, by
    ``check_toy_size``, the largest activation of a copy forward, as the
    CLI does; with nothing trainable it then returns the empty report.

    It first sets this process's allocator policy, as ``train_adapters``
    does (``workers.keep_freed_heap``), since every copy forward allocates
    arrays of the same shapes: under glibc's defaults, an audit of the
    default toy faulted in 38,000-48,000 pages at 2 x 6 tokens and 114,000
    at 4 x 6.
    """
    check_positive_real("eps", eps, InvalidConfig)
    if model.cfg.precision != "double":
        raise InvalidConfig(
            f"grad_check needs a double-precision model, got {model.cfg.precision!r}")
    source_ids, target_ids = model._check_pair(source_ids, target_ids)
    batch, length = target_ids.shape[0], max(source_ids.shape[1], target_ids.shape[1])
    copies = grad_check_copies(model.cfg, batch, length)
    check_toy_size(model.cfg, batch, length, copies)
    if model.lowest_trainable == model.n_layers:
        return GradCheckReport(0.0, "", 0, eps, {})
    keep_freed_heap()
    prefix = model.prefix(source_ids, target_ids, model.lowest_trainable)
    inputs = model.backward(model.forward(source_ids, target_ids, prefix))
    prefix = model._copy_prefix(prefix)

    per_parameter: dict[str, float] = {}
    worst_name = ""
    worst_err = 0.0
    n_checked = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for index, block, adapter in model.adapters():
            errors = _relative_errors(model, prefix, index, block, inputs[adapter], adapter,
                                      n_checked, copies, eps)
            n_checked += errors.size
            end = 0
            for param in adapter.parameters():
                tensor = errors[end:end + param.value.size]
                end += param.value.size
                # Python's max never picks NaN; a NaN error fails the audit.
                param_err = math.nan if np.isnan(tensor).any() else max(0.0, *tensor)
                per_parameter[param.name] = param_err
                # The last tensor with the largest error, or the first with NaN.
                if param_err >= worst_err or (math.isnan(param_err) and not math.isnan(worst_err)):
                    worst_err = param_err
                    worst_name = param.name
    return GradCheckReport(
        max_rel_error=worst_err,
        worst_parameter=worst_name,
        n_params_checked=n_checked,
        eps=eps,
        per_parameter=per_parameter,
    )


@dataclass(frozen=True)
class TrainConfig:
    """How ``train_adapters`` trains. Every rule on it is checked when it
    is built, so a bad setting is refused before any model is."""

    learning_rate: float = 1e-2
    steps: int = 200
    optimizer: str = "adam"  # or "sgd"

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidConfig(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        check_int("steps", self.steps, InvalidConfig)
        check_positive_real("learning_rate", self.learning_rate, InvalidConfig)


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)  # loss before each update
    final_loss: float = float("nan")

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")

    def to_json_dict(self) -> dict:
        return {
            "losses": self.losses,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
        }


def _check_loss(loss: float, log: TrainLog, where: str):
    if not math.isfinite(loss):
        raise Divergence(f"loss became non-finite {where}")
    if log.losses and loss > LOSS_GROWTH_LIMIT * log.initial_loss:
        raise Divergence(f"loss {loss:.6g} {where} exceeds {LOSS_GROWTH_LIMIT:g} times "
                         f"the initial loss {log.initial_loss:.6g}")


def _adam(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
          lr: float):
    """Adam's update number ``t`` of the flat ``theta``, in place, with its
    moments ``m`` and ``v``. Its theta-sized temporaries die when it
    returns, where locals of the training loop would stay alive through the
    next step's forward and backward."""
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_adapters(model: ToyModel, source_ids: np.ndarray, target_ids: np.ndarray,
                   cfg: TrainConfig) -> TrainLog:
    """Full-batch gradient descent on the trainable parameters only.

    The work below the lowest adapter never changes, so a ``Prefix`` at
    ``model.lowest_trainable`` is computed once and every step and the
    final loss run forward from it. With nothing trainable, ``theta`` is
    empty and no step can change the loss, so one forward from the prefix
    gives the loss of every step and the final loss. The losses are those
    of full forwards, bit for bit. Raises ``Divergence`` when a loss is
    non-finite or exceeds ``LOSS_GROWTH_LIMIT`` times the initial loss;
    numpy's overflow warnings on the way there are silenced, because that
    check reports them. A batch whose largest activation ``check_toy_size``
    refuses raises ``InvalidConfig`` before any forward. Only Adam keeps
    moments, two flat vectors the size of ``theta`` (``_adam``).

    It first sets this process's allocator policy
    (``workers.keep_freed_heap``). Each step's tapes and logits go with
    the step, so whether it returns or raises, the model holds no more than
    its parameters.
    """
    source_ids, target_ids = model._check_pair(source_ids, target_ids)
    check_toy_size(model.cfg, target_ids.shape[0], max(source_ids.shape[1], target_ids.shape[1]))
    keep_freed_heap()
    theta, grad = model.theta, model.theta_grad
    if cfg.optimizer == "adam":
        adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    prefix = model.prefix(source_ids, target_ids, model.lowest_trainable)

    log = TrainLog()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if model.lowest_trainable == model.n_layers:
            # theta is empty, so no step changes the loss of this forward.
            log.final_loss = model.forward(source_ids, target_ids, prefix).loss
            _check_loss(log.final_loss, log, "at step 0")
            log.losses = [log.final_loss] * cfg.steps
            return log
        for step in range(cfg.steps):
            loss = model.forward_backward(source_ids, target_ids, prefix)
            _check_loss(loss, log, f"at step {step}")
            log.losses.append(loss)
            if cfg.optimizer == "sgd":
                theta -= cfg.learning_rate * grad
            else:
                _adam(theta, grad, adam_m, adam_v, step + 1, cfg.learning_rate)

        final_loss = model.forward(source_ids, target_ids, prefix).loss
        _check_loss(final_loss, log, "after the last step")
    log.final_loss = final_loss
    return log


def make_copy_task(n_examples: int = 32, seq_len: int = 6, vocab_size: int = 64,
                   seed: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Random sequences with target = source; token ids avoid the BOS id.
    Each argument is an ``int``: the sizes positive, ``vocab_size`` above
    ``BOS_ID + 1``, ``seed`` non-negative."""
    check_int("n_examples", n_examples)
    check_int("seq_len", seq_len)
    _check_vocab_size(vocab_size)
    rng = np.random.default_rng(check_int("seed", seed, allow_zero=True))
    source = rng.integers(BOS_ID + 1, vocab_size, size=(n_examples, seq_len), dtype=np.int64)
    return source, source.copy()
