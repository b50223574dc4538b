"""Independent brute-force oracles.

Everything here is deliberately naive -- literal loops over the defining
formulas, or explicit unfoldings and partial contractions that the library
no longer builds -- and shares no code with the library paths it checks.
The readers of the tensor dump and the model file live here too: only the
tests read those files back, to check the writers' formats. So do the paths
of the benchmark's scene files, ref.cfg being the reference scene.
"""

from pathlib import Path

import numpy as np

SCENES = Path(__file__).resolve().parents[1] / "perfbench" / "scenes"
REF_SCENE = SCENES / "ref.cfg"


def contract_bruteforce(g_i, g_j, g_n):
    """Literal 6-nested-loop evaluation of the element-wise reconstruction."""
    ii, f, _ = g_i.shape
    jj = g_j.shape[1]
    nn = g_n.shape[2]
    out = np.zeros((ii, jj, nn))
    for i in range(ii):
        for j in range(jj):
            for n in range(nn):
                acc = 0.0
                for x in range(f):
                    for y in range(f):
                        for z in range(f):
                            acc += g_i[i, x, y] * g_j[x, j, z] * g_n[y, z, n]
                out[i, j, n] = acc
    return out


def unfold_bruteforce(tensor, mode):
    """Entry-by-entry construction of the declared unfolding layouts."""
    ii, jj, nn = tensor.shape
    if mode == "i":
        out = np.zeros((ii, jj * nn))
        for i in range(ii):
            for j in range(jj):
                for n in range(nn):
                    out[i, n * jj + j] = tensor[i, j, n]
    elif mode == "j":
        out = np.zeros((jj, ii * nn))
        for i in range(ii):
            for j in range(jj):
                for n in range(nn):
                    out[j, n * ii + i] = tensor[i, j, n]
    elif mode == "n":
        out = np.zeros((nn, ii * jj))
        for i in range(ii):
            for j in range(jj):
                for n in range(nn):
                    out[n, j * ii + i] = tensor[i, j, n]
    else:
        raise ValueError(mode)
    return out


def fold(matrix, dims, mode):
    """Exact inverse of the declared unfolding layouts for the given target dims."""
    from evtensor.errors import ShapeError

    ii, jj, nn = dims
    expect = {"i": (ii, nn * jj), "j": (jj, nn * ii), "n": (nn, jj * ii)}
    if mode not in expect:
        raise ValueError(f"unknown mode {mode!r}")
    if matrix.shape != expect[mode]:
        raise ShapeError(f"mode-{mode} fold expects shape {expect[mode]}, got {matrix.shape}")
    if mode == "i":
        return matrix.reshape(ii, nn, jj).transpose(0, 2, 1)
    if mode == "j":
        return matrix.reshape(jj, nn, ii).transpose(2, 0, 1)
    return matrix.reshape(nn, jj, ii).transpose(2, 1, 0)


def unfold(tensor: np.ndarray, mode: str) -> np.ndarray:
    """Matricize a 3rd-order tensor along one mode (layouts in the tensor_ops docstring)."""
    from evtensor.errors import ShapeError

    if tensor.ndim != 3:
        raise ShapeError(f"expected a 3rd-order tensor, got ndim={tensor.ndim}")
    ii, jj, nn = tensor.shape
    if mode == "i":
        return tensor.transpose(0, 2, 1).reshape(ii, nn * jj)
    if mode == "j":
        return tensor.transpose(1, 2, 0).reshape(jj, nn * ii)
    if mode == "n":
        return tensor.transpose(2, 1, 0).reshape(nn, jj * ii)
    raise ValueError(f"unknown mode {mode!r}")


def partial_contract_pair(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """Contract the two factors complementary to `mode` over their shared latent index.

    `mode` names the omitted factor; the remaining pair is passed in canonical
    order (mode 'i': a=g_j, b=g_n; mode 'j': a=g_i, b=g_n; mode 'n': a=g_i,
    b=g_j). Returns the f^2 x (product of the two open data dims) matrix H_m
    satisfying unfold(reconstruction, m) == matricize_factor(g_m, m) @ H_m.
    """
    from evtensor.errors import ShapeError

    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError("partial contraction expects two 3rd-order factors")
    if mode == "i":
        # a=(x,j,z), b=(y,z,n); rows (x,y) x-fastest, cols (j,n) j-fastest
        f, jj, fz = a.shape
        fy, fz2, nn = b.shape
        if not (f == fz == fy == fz2):
            raise ShapeError(f"latent dims disagree: g_j {a.shape}, g_n {b.shape}")
        h = np.einsum("xjz,yzn->yxnj", a, b)
        return h.reshape(f * f, nn * jj)
    if mode == "j":
        # a=(i,x,y), b=(y,z,n); rows (x,z) x-fastest, cols (i,n) i-fastest
        ii, f, fy = a.shape
        fy2, fz, nn = b.shape
        if not (f == fy == fy2 == fz):
            raise ShapeError(f"latent dims disagree: g_i {a.shape}, g_n {b.shape}")
        h = np.einsum("ixy,yzn->zxni", a, b)
        return h.reshape(f * f, nn * ii)
    if mode == "n":
        # a=(i,x,y), b=(x,j,z); rows (y,z) y-fastest, cols (i,j) i-fastest
        ii, f, fy = a.shape
        fx, jj, fz = b.shape
        if not (f == fy == fx == fz):
            raise ShapeError(f"latent dims disagree: g_i {a.shape}, g_j {b.shape}")
        h = np.einsum("ixy,xjz->zyji", a, b)
        return h.reshape(f * f, jj * ii)
    raise ValueError(f"unknown mode {mode!r}")


def pair_contraction(factors, mode: str) -> np.ndarray:
    """The mode-m partial contraction of a triple's other two factors."""
    if mode == "i":
        return partial_contract_pair(factors.g_j, factors.g_n, "i")
    if mode == "j":
        return partial_contract_pair(factors.g_i, factors.g_n, "j")
    if mode == "n":
        return partial_contract_pair(factors.g_i, factors.g_j, "n")
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the sparse products as they ran before they were blocked: the batched pair
# table over all its columns, one (f^2, nnz) gather, one einsum over every
# cell, and the column statistics of each whole gathered table block. The
# blocked library functions must match them bit for bit.

# mode -> the other two factors as (name, data axis, shared latent axis)
_PAIRS = {"i": (("g_j", 1, 2), ("g_n", 2, 1)),
          "j": (("g_i", 0, 2), ("g_n", 2, 0)),
          "n": (("g_i", 0, 1), ("g_j", 1, 0))}


def pair_table_batched(factors, mode: str) -> np.ndarray:
    """The mode's full pair table as one batched matmul over the second
    factor's open latent index."""
    (name_a, data_a, shared_a), (name_b, data_b, shared_b) = _PAIRS[mode]
    f = factors.rank
    a = getattr(factors, name_a).transpose(3 - data_a - shared_a, data_a, shared_a)
    b = getattr(factors, name_b).transpose(3 - data_b - shared_b, shared_b, data_b)
    return np.matmul(a.reshape(-1, f), b).reshape(f * f, -1)


def coo_rhs_unblocked(plan, factors) -> np.ndarray:
    """E_m H_m^T in the plan's mode from the full pair table and one (f^2,
    nnz) gather at the nonzeros' table columns, summed by one np.add.reduceat."""
    table = pair_table_batched(factors, plan.mode)
    out = np.zeros((table.shape[0], plan.dims["ijn".index(plan.mode)]))
    if len(plan.starts):
        gathered = np.take(table, plan.cols, axis=1)
        out[:, plan.rows] = np.add.reduceat(gathered, plan.starts, axis=1)
    return out.T


def cell_values_unblocked(factors, i, j, n) -> np.ndarray:
    """The reconstruction at the given cells from one einsum over all of them:
    row j of the mode-j matricized g_j against column i*N + n of mode j's
    pair table."""
    f = factors.rank
    cols = np.ravel_multi_index((i, n), (factors.dims[0], factors.dims[2]))
    table = np.take(pair_table_batched(factors, "j"), cols, axis=1)
    g_j = factors.g_j.transpose(1, 2, 0).reshape(-1, f * f)
    return np.einsum("mk,km->m", g_j[j], table)


def column_stats_unblocked(features):
    """Per-column mean and std of gathered features, each table block
    gathered whole."""
    blocks = (t[r] for t, r in zip(features.tables, features.rows))
    means, stds = zip(*[(b.mean(axis=0), b.std(axis=0)) for b in blocks])
    return np.concatenate(means), np.concatenate(stds)


def auc_bruteforce(scores, labels):
    """All-pairs Mann-Whitney count: wins 1, ties 1/2, over P*N pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_by_tie_runs(scores, labels):
    """The rank-sum AUC with average ranks found by scanning the sorted scores
    for runs of ties: a run at sorted positions [start, end) shares the rank
    (start + 1 + end) / 2. Assumes both classes and no NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def objective_bruteforce(x, g_i, g_j, g_n):
    """Half the squared error, accumulated entry by entry."""
    recon = contract_bruteforce(g_i, g_j, g_n)
    acc = 0.0
    for v, r in zip(x.ravel(), recon.ravel()):
        acc += (v - r) ** 2
    return 0.5 * acc


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between two same-shaped arrays."""
    from evtensor.errors import ShapeError
    from evtensor.tensor_ops import frob_norm

    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frob_norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))


def objective(state) -> float:
    """Half the squared Frobenius distance between X and the reconstruction."""
    from evtensor.tensor_ops import f3tn_contract

    return 0.5 * frob_dist(state.x, f3tn_contract(state.factors)) ** 2


def blend_x(reconstruction: np.ndarray, x_old: np.ndarray, lambda2: float) -> np.ndarray:
    """Elementwise convex blend (reconstruction + lambda2 * x_old) / (1 + lambda2),
    with one full-size temporary."""
    out = lambda2 * x_old
    out += reconstruction
    out /= 1.0 + lambda2
    return out


def quasi_identity(rows: int, cols: int) -> np.ndarray:
    """Rectangular matrix with ones exactly on matching row/column indices."""
    return np.eye(rows, cols)


def scalar_rank1_factor_update(x_mat, h_row, g_old_col, lambda1, lambda2):
    """f=1 factor update: each row of the matricized factor is one division.

    h_row: the 1 x R pair contraction flattened to a vector; x_mat: d x R;
    g_old_col: d. The quasi-identity contributes lambda1 to row 0 only.
    """
    denom = float(np.dot(h_row, h_row)) + lambda2
    out = np.zeros(len(g_old_col))
    for r in range(len(g_old_col)):
        num = float(np.dot(x_mat[r], h_row)) + lambda2 * g_old_col[r]
        if r == 0:
            num += lambda1
        out[r] = num / denom
    return out


def update_factor_diag_indices(factors, mode, cfg, product, gram):
    """The matricized factor and residual of `update_factor`, with both
    diagonal edits addressed by np.diag_indices index arrays: lambda2 on
    the Gram's diagonal and lambda1 on the right-hand side's leading one."""
    from evtensor.tensor_ops import frob_norm, matricize_factor

    a = gram.copy()
    a[np.diag_indices_from(a)] += cfg.lambda2
    rhs = product + cfg.lambda2 * matricize_factor(factors.factor(mode), mode)
    if cfg.lambda1 != 0.0:
        rhs[np.diag_indices(min(rhs.shape))] += cfg.lambda1
    g_new = np.linalg.solve(a, rhs.T).T
    return g_new, frob_norm(g_new @ a - rhs) / (1.0 + frob_norm(rhs))


def random_factors(rng, dims, f, lo=-1.0, hi=1.0):
    ii, jj, nn = dims
    from evtensor.tensor_ops import FactorTriple

    return FactorTriple(
        g_i=rng.uniform(lo, hi, size=(ii, f, f)),
        g_j=rng.uniform(lo, hi, size=(f, jj, f)),
        g_n=rng.uniform(lo, hi, size=(f, f, nn)),
    )


def write_events_csv(stream, path_or_fh) -> None:
    """Row-at-a-time event CSV writer: one f-string per event."""
    from evtensor.events import open_text

    with open_text(path_or_fh, "w") as fh:
        if stream.has_labels:
            fh.write("t,i,j,label\n")
            for t, i, j, lab in zip(stream.t, stream.i, stream.j, stream.labels):
                fh.write(f"{t},{i},{j},{lab}\n")
        else:
            fh.write("t,i,j\n")
            for t, i, j in zip(stream.t, stream.i, stream.j):
                fh.write(f"{t},{i},{j}\n")


def format_rows(row: str, columns) -> str:
    """Every row of the equal-length `columns` through the %-format `row`, as
    one string: the cells go to one ``%`` as Python objects, so integers stay
    exact and floats format as Python floats."""
    cells = np.column_stack([np.asarray(c).astype(object) for c in columns])
    return (row * len(cells)) % tuple(cells.ravel().tolist())


def save_checkpoint_savetxt(factors, path_or_fh) -> None:
    """The checkpoint through ``np.savetxt``: header ``I J N f``, then each
    matricized factor's rows as space-separated ``%.17g`` values."""
    from evtensor.events import open_text
    from evtensor.tensor_ops import matricize_factor

    ii, jj, nn = factors.dims
    with open_text(path_or_fh, "w") as fh:
        fh.write(f"{ii} {jj} {nn} {factors.rank}\n")
        for mode in ("i", "j", "n"):
            np.savetxt(fh, matricize_factor(factors.factor(mode), mode), fmt="%.17g")


def write_trace_csv(state, path_or_fh, metadata=None) -> None:
    """Row-at-a-time trace writer: one ``%`` per trace record."""
    from evtensor.events import open_text

    with open_text(path_or_fh, "w") as fh:
        for key in sorted(metadata or {}):
            fh.write(f"# {key}: {metadata[key]}\n")
        fh.write("s,f,objective,rel_change\n")
        for rec in state.trace:
            fh.write("%d,%d,%.17g,%.17g\n" % (rec.s, rec.f, rec.objective, rec.rel_change))


def parse_events_readlines(path, geometry):
    """A valid event CSV parsed as parse_events did before it read the body as
    one string: a readlines() list handed to np.loadtxt."""
    from evtensor.events import EventStream

    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
        lines = fh.readlines()
    body = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    fields = dict(zip(columns, np.ascontiguousarray(body.T)))
    return EventStream(i=fields["i"], j=fields["j"], t=fields["t"], geometry=geometry,
                       labels=fields.get("label"))


def bin_to_tensor_dense(stream, n_bins: int) -> np.ndarray:
    """The binary (I, J, N) uint8 array of a stream, one scatter of ones at
    every event's cell into a zero array of the sensor's size."""
    from evtensor.events import bin_indices, compute_bin_edges

    edges = compute_bin_edges(stream.t_min, stream.t_max, n_bins)
    data = np.zeros((*stream.geometry, n_bins), dtype=np.uint8)
    data[stream.i, stream.j, bin_indices(stream.t, edges)] = 1
    return data


def is_binary(data: np.ndarray) -> bool:
    """Every entry exactly 0 or 1: each nonzero entry (NaN included) equals 1.
    It needs one bool temporary of data's size."""
    return np.count_nonzero(data) == np.count_nonzero(data == 1)


def event_tensor(data, bin_edges=None):
    """The EventTensor of a dense (I, J, N) 0/1 array: its nonzeros as the
    cells, and unit bins unless `bin_edges` are given. Raises ValueError
    when the cells do not give the array back through `.data`, that is for
    any entry other than 0 or 1 (0.5, NaN, 2, -1)."""
    from evtensor.events import EventTensor

    data = np.asarray(data)
    if bin_edges is None:
        bin_edges = np.arange(data.shape[-1] + 1)
    tensor = EventTensor(np.flatnonzero(data), data.shape, bin_edges)
    if not np.array_equal(tensor.data, data):
        raise ValueError("event tensor entries must be exactly 0 or 1")
    return tensor


def write_tensor_dump(tensor, path_or_fh) -> None:
    """Per-frame tensor dump of an EventTensor: each frame's digits read from
    its dense data across the strides, as ``data[:, :, n] + ord("0")``."""
    from evtensor.events import open_text

    data = tensor.data
    rows, cols, n_bins = data.shape
    # one ASCII byte per character: digit, space, digit, ..., digit, newline
    text = np.full((rows, 2 * cols), ord(" "), dtype=np.uint8)
    text[:, -1] = ord("\n")
    with open_text(path_or_fh, "w") as fh:
        fh.write(f"{rows} {cols} {n_bins}\n")
        for n in range(n_bins):
            text[:, 0::2] = data[:, :, n] + ord("0")
            fh.write(text.tobytes().decode("ascii"))


def odd_tensors():
    """(id, array) pairs for checks over a tensor's dtype and values: each of
    bool, uint8, int8, int64, float32 and float64 with every value of 0, 1, 2,
    255, -1, 0.5, NaN, inf and -0.0 it holds, in one cell of a random 0/1
    tensor, and as empty, all-zero, all-one, single-frame and transposed
    (not C-contiguous) tensors."""
    base = np.random.default_rng(7).random((4, 5, 3)) < 0.4
    for dtype in (bool, np.uint8, np.int8, np.int64, np.float32, np.float64):
        kind, name = np.dtype(dtype).kind, np.dtype(dtype).name
        for value in (0, 1, 2, 255, -1, 0.5, np.nan, np.inf, -0.0):
            if kind != "f" and not (isinstance(value, int) and (
                    value in (0, 1) if kind == "b"
                    else np.iinfo(dtype).min <= value <= np.iinfo(dtype).max)):
                continue
            data = base.astype(dtype)
            data[1, 2, 1] = value
            yield f"{name}-{value}", data
        yield f"{name}-no-rows", np.zeros((0, 3, 2), dtype)
        yield f"{name}-no-frames", np.zeros((3, 4, 0), dtype)
        yield f"{name}-all-zero", np.zeros((4, 5, 3), dtype)
        yield f"{name}-all-one", np.ones((4, 5, 3), dtype)
        yield f"{name}-one-frame", base[:, :, :1].astype(dtype)
        yield f"{name}-transposed", base.astype(dtype).transpose(1, 2, 0)


def coo_plans(data) -> dict:
    """Per mode, the (cols, starts, rows) of a sparse sort plan of data's
    nonzeros from np.nonzero and an int64 stable argsort."""
    coords = np.nonzero(data)
    plans = {}
    for axis, mode in enumerate("ijn"):
        slow, fast = (a for a in range(3) if a != axis)
        order = np.argsort(coords[axis], kind="stable")
        key = coords[axis][order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        cols = (coords[slow] * data.shape[fast] + coords[fast])[order]
        plans[mode] = (cols, starts, key[starts])
    return plans


def write_report_csv(stream, report, path_or_fh) -> None:
    """Row-at-a-time denoise report writer: one list of cells per event."""
    from evtensor.events import open_text

    has_labels = stream.has_labels
    with open_text(path_or_fh, "w") as fh:
        fh.write("t,i,j,label,score,kept\n" if has_labels else "t,i,j,score,kept\n")
        for k in range(len(stream)):
            cells = [str(int(stream.t[k])), str(int(stream.i[k])), str(int(stream.j[k]))]
            if has_labels:
                cells.append(str(int(stream.labels[k])))
            cells.append("%.17g" % report.scores[k])
            cells.append("1" if report.kept[k] else "0")
            fh.write(",".join(cells) + "\n")


def _footprint_pixels(pos, footprint, geometry):
    """Integer pixels of the L-inf ball around pos, clipped to the sensor.
    Returns (pixels inside, count clipped away)."""
    rows, cols = geometry
    ci = int(round(pos[0]))
    cj = int(round(pos[1]))
    pix = []
    clipped = 0
    for di in range(-footprint, footprint + 1):
        for dj in range(-footprint, footprint + 1):
            i, j = ci + di, cj + dj
            if 0 <= i < rows and 0 <= j < cols:
                pix.append((i, j))
            else:
                clipped += 1
    return pix, clipped


def generate_loop(spec):
    """Event-at-a-time scene generator: one scalar timestamp draw and four
    list appends per fired footprint pixel, in the same RNG draw order as
    synth.generate. It logs no clipping warning."""
    from evtensor.events import NOISE_LABEL, EventStream, compute_bin_edges

    edges = compute_bin_edges(0, spec.duration_us, spec.n_frames)
    frame_rngs = [np.random.default_rng(s) for s in
                  np.random.SeedSequence(spec.seed).spawn(spec.n_frames)]
    rows, cols = spec.geometry
    ev_i, ev_j, ev_t, ev_label = [], [], [], []

    for n in range(spec.n_frames):
        rng = frame_rngs[n]
        lo, hi = int(edges[n]), int(edges[n + 1])
        midpoint = n + 0.5
        for obj_id, obj in enumerate(spec.objects):
            pix, _ = _footprint_pixels(obj.position(midpoint), obj.footprint,
                                       spec.geometry)
            if not pix:
                continue
            fires = rng.random(len(pix)) < obj.prob
            for (i, j), fired in zip(pix, fires):
                if fired:
                    ev_i.append(i)
                    ev_j.append(j)
                    ev_t.append(int(rng.integers(lo, hi)))
                    ev_label.append(obj_id)
        n_noise = int(rng.poisson(spec.noise_per_frame))
        if n_noise:
            ev_i.extend(int(v) for v in rng.integers(0, rows, size=n_noise))
            ev_j.extend(int(v) for v in rng.integers(0, cols, size=n_noise))
            ev_t.extend(int(v) for v in rng.integers(lo, hi, size=n_noise))
            ev_label.extend([NOISE_LABEL] * n_noise)

    if not ev_t:
        raise ValueError("scene produced zero events; raise probabilities or noise rate")
    return EventStream(
        i=np.array(ev_i), j=np.array(ev_j), t=np.array(ev_t),
        geometry=spec.geometry, labels=np.array(ev_label),
        t_min=0, t_max=spec.duration_us,
    )


def extract_features(stream, tensor, factors):
    """The dense per-event feature matrix that `extract_features` built before
    it kept its features gathered: one materialized (M, 3*f^2) row per
    labeled event, [g_i slice at i | g_j slice at j | g_n slice at n]."""
    from evtensor.errors import ProtocolError
    from evtensor.evaluation import FeatureMatrix
    from evtensor.events import event_frames
    from evtensor.tensor_ops import matricize_factor

    if not stream.has_labels:
        raise ProtocolError("feature extraction requires a labeled stream")
    frames = event_frames(stream, tensor, factors.dims)
    mat_i = matricize_factor(factors.g_i, "i")
    mat_j = matricize_factor(factors.g_j, "j")
    mat_n = matricize_factor(factors.g_n, "n")
    features = np.hstack([mat_i[stream.i], mat_j[stream.j], mat_n[frames]])
    return FeatureMatrix(
        features=features,
        labels=stream.labels.copy(),
        frames=frames,
        n_frames=factors.dims[2],
    )


def svm_primal_gradient(model, x, targets):
    """The gradient in (w, b) of the squared-hinge primal that `train_svm`
    minimizes, at the model's weights and bias, from the dense standardized
    features (x - mean) / std."""
    targets = np.asarray(targets)
    y = np.where(targets == targets.max(), 1.0, -1.0)
    z = (np.asarray(x) - model.mean) / model.std
    slack = 1.0 - y * (z @ model.weights + model.bias)
    v = np.where(slack > 0, y * slack, 0.0)
    return np.r_[model.reg_lambda * model.weights - v @ z / len(y), -v.sum() / len(y)]


def train_svm_dense(x, targets, reg_lambda=1e-3, max_iterations=50):
    """`train_svm` on a dense (n, d) matrix, written out: dense column
    statistics, z = (x - mean) / std, and finite Newton on the squared-hinge
    primal whose step solves the active events' dense normal equations and
    whose line search bisects the primal's derivative along the step."""
    from evtensor.evaluation import SvmModel

    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets)
    y = np.where(targets == targets.max(), 1.0, -1.0)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    z1 = np.hstack([(x - mean) / std, np.ones((len(x), 1))])
    n, d = z1.shape
    reg = np.full(d, reg_lambda)
    reg[-1] = 0.0  # the bias is not regularized
    u = np.zeros(d)

    for iteration in range(1, max_iterations + 1):
        margins = y * (z1 @ u)
        active = margins < 1.0
        za = z1[active]
        du = np.linalg.solve(np.diag(reg) + za.T @ za / n, za.T @ y[active] / n) - u
        dmargins = y * (z1 @ du)

        def slope(t):
            slack = np.maximum(1.0 - margins - t * dmargins, 0.0)
            return (reg * (u + t * du)) @ du - slack @ dmargins / n

        hi = 1.0
        while slope(hi) < 0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        u = u + hi * du
        if np.array_equal(y * (z1 @ u) < 1.0, active):
            break
    return SvmModel(weights=u[:-1], bias=u[-1], mean=mean, std=std,
                    reg_lambda=reg_lambda, iterations=iteration)


# ---------------------------------------------------------------------------
# the dense-X solve: X as a float64 (I, J, N) array, blended and measured cell
# by cell. The library keeps X as E's nonzeros plus a history of factor
# triples; this is the reference it must match.


def gi_x_product(x: np.ndarray, g_i: np.ndarray) -> np.ndarray:
    """The (f^2, J*N) product V = matricize_factor(g_i, "i")^T X_(I, J*N), one
    I*J*N*f^2 matmul: V[y*f + x, j*N + n] = sum_i g_i[i,x,y] x[i,j,n]. The
    mode-j and mode-n right-hand sides both start from it."""
    from evtensor.tensor_ops import matricize_factor

    ii, jj, nn = x.shape
    return matricize_factor(g_i, "i").T @ x.reshape(ii, jj * nn)


def pair_rhs(x: np.ndarray, factors, mode: str,
             gi_x: np.ndarray | None = None) -> np.ndarray:
    """X_m H_m^T, read from X's (I, J, N) layout with no unfolding or H_m.

    Mode i is one batched matmul of g_j against X's (J, N) slices, then g_n
    over (z, n). Modes j and n contract `gi_x`, the gi_x_product of X and
    factors.g_i, with g_n over (y, n) or with g_j over (x, j), each
    O(J*N*f^3); it is computed here when not given. A caller that passes it
    must have taken it from the current g_i."""
    from evtensor.errors import ShapeError

    f = factors.rank
    ii, jj, nn = factors.dims
    if x.shape != (ii, jj, nn):
        raise ShapeError(f"X has shape {x.shape}, the factors {(ii, jj, nn)}")
    if mode == "i":
        # w[i, x*f + z, n] = sum_j g_j[x,j,z] x[i,j,n]
        w = factors.g_j.transpose(0, 2, 1).reshape(f * f, jj) @ x
        # sum over (z, n) against g_n -> (i, x, y): column y*f + x
        p = w.reshape(ii, f, f * nn) @ factors.g_n.reshape(f, f * nn).T
        return p.transpose(0, 2, 1).reshape(ii, f * f)
    if mode not in ("j", "n"):
        raise ValueError(f"unknown mode {mode!r}")
    if gi_x is None:
        gi_x = gi_x_product(x, factors.g_i)
    v = gi_x.reshape(f, f * jj, nn)  # (y, (x, j), n)
    if mode == "j":
        # per y, sum over n against g_n[y]; then over y -> (x, j, z): column z*f + x
        p = (v @ factors.g_n.transpose(0, 2, 1)).sum(axis=0)
        return p.reshape(f, jj, f).transpose(1, 2, 0).reshape(jj, f * f)
    # sum over (x, j) against g_j -> (y, z, n): column z*f + y
    p = factors.g_j.reshape(f * jj, f).T @ v
    return p.transpose(2, 1, 0).reshape(nn, f * f)


class DenseState:
    """The solver state with X as a dense float64 array."""

    def __init__(self, x, factors, s=0, rng=None):
        self.x = x
        self.factors = factors
        self.s = s
        self.rng = rng
        self.trace = []
        self.converged = False

    @property
    def f(self) -> int:
        return self.factors.rank


def init_dense_state(e, cfg) -> DenseState:
    """X starts as a float64 copy of the EventTensor E's data; the factors
    and generator are the library's start at the same seed."""
    from evtensor.solver import init_state

    start = init_state(e, cfg)
    x = e.data.astype(np.float64)
    return DenseState(x=x, factors=start.factors, s=0, rng=start.rng)


def update_x(state, cfg, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """X_new = (R + lambda2 X_old) / (1 + lambda2) and the step
    ||X_new - X_old||. The reconstruction R is copied into `out` when given,
    and that array becomes X_new - X_old, then X_new; state.x is not
    written, so `out` must not share its memory."""
    from evtensor.tensor_ops import f3tn_contract, frob_norm

    if out is not None and np.shares_memory(out, state.x):
        raise ValueError("update_x cannot write X_new into the memory of X_old")
    x_new = f3tn_contract(state.factors)
    if out is not None:
        out[...] = x_new
        x_new = out
    x_new -= state.x
    x_new /= 1.0 + cfg.lambda2
    step = frob_norm(x_new)
    x_new += state.x
    return x_new, step


def solve_dense(e, cfg=None):
    """The solve schedule with a dense X: the library's factor solves and rank
    growth, fed right-hand sides from the dense pair_rhs, and the X update,
    step and stop check taken cell by cell. Each TraceRecord's fit is the
    dense ||f3tn_contract(F) - E|| / ||E||."""
    from evtensor.solver import SolverConfig, TraceRecord, grow_rank, update_factor
    from evtensor.tensor_ops import f3tn_contract, frob_norm, pair_gram

    cfg = cfg or SolverConfig()
    state = init_dense_state(e, cfg)
    e_dense = e.data.astype(np.float64)
    e_norm = frob_norm(e_dense)
    spare = None  # the previous sweep's X_old, the buffer of the next R
    while state.s < cfg.s_max:
        state.factors, res_i = update_factor(state, "i", cfg,
                                             pair_rhs(state.x, state.factors, "i"),
                                             pair_gram(state.factors, "i"))
        # modes j and n both contract X with the fresh g_i: one product for both
        gi_x = gi_x_product(state.x, state.factors.g_i)
        state.factors, res_j = update_factor(state, "j", cfg,
                                             pair_rhs(state.x, state.factors, "j", gi_x),
                                             pair_gram(state.factors, "j"))
        state.factors, res_n = update_factor(state, "n", cfg,
                                             pair_rhs(state.x, state.factors, "n", gi_x),
                                             pair_gram(state.factors, "n"))
        del gi_x  # free before the X update's buffers
        max_residual = max(0.0, res_i, res_j, res_n)
        fit = frob_dist(f3tn_contract(state.factors), e_dense)
        fit = fit / e_norm if e_norm > 0 else fit
        x_old_norm = frob_norm(state.x)
        x_new, delta = update_x(state, cfg, out=spare)
        rel_change = delta / x_old_norm if x_old_norm > 0 else delta
        spare, state.x = state.x, x_new

        grew = rel_change < cfg.grow_tol and state.f < cfg.f_max
        # X_new - R = lambda2 * (X_old - X_new), so no second contraction
        obj = 0.5 * (cfg.lambda2 * delta) ** 2
        state.trace.append(TraceRecord(s=state.s, f=state.f, objective=obj, rel_change=rel_change,
                                       max_residual=max_residual, grew=grew, fit=fit))
        if grew:
            grow_rank(state, cfg)
        elif rel_change < cfg.conv_tol:
            state.converged = True
            state.s += 1
            break
        state.s += 1
    return state.factors, state


def coo_cells(plan):
    """E's 1-cells as (i, j, n) in C order, read back from its mode-i sort
    plan: a stable sort by i leaves C order as it is."""
    i = np.repeat(plan.rows, np.diff(np.append(plan.starts, len(plan.cols))))
    j, n = np.divmod(plan.cols, plan.dims[2])
    return i, j, n


def dense_target(target) -> np.ndarray:
    """The library's RelaxedTarget as the dense X it stands for."""
    from evtensor.tensor_ops import FactorTriple, f3tn_contract

    x = np.zeros(target.e["i"].dims)
    x[coo_cells(target.e["i"])] = target.e_weight
    for k, w in enumerate(target.weights):
        triple = FactorTriple(g_i=target.history.g_i[k], g_j=target.history.g_j[k],
                              g_n=target.history.g_n[k])
        x += w * f3tn_contract(triple)
    return x


# ---------------------------------------------------------------------------
# readers of the library's text artifacts, which only the tests read back


def read_tensor_dump(path_or_fh) -> np.ndarray:
    """Inverse of events.write_tensor_dump; returns the uint8 data array.
    Each of the I*N body lines must be 2J bytes: a 0/1 digit and a space,
    J times, the last space a newline."""
    from evtensor.events import _header_ints, open_text

    with open_text(path_or_fh) as fh:
        rows, cols, n_bins = _header_ints(fh, "I J N")
        body = np.frombuffer(fh.read().encode("ascii"), dtype=np.uint8)
    # the digits sit at the even columns of 2*cols-byte lines
    values = body[0::2] - np.uint8(ord("0"))
    if values.size != rows * cols * n_bins:
        raise ValueError(f"dump holds {values.size} values, expected {rows * cols * n_bins}")
    separators = np.full(cols, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    if (body.size != 2 * values.size or values.max() > 1
            or np.any(body[1::2].reshape(rows * n_bins, cols) != separators)):
        raise ValueError("a tensor dump holds only 0/1 digits, one space apart")
    return np.ascontiguousarray(values.reshape(n_bins, rows, cols).transpose(1, 2, 0))


def load_model(path_or_fh):
    """Inverse of evaluation.save_model. A missing or empty field raises
    ValueError naming it; weights, mean and std of unequal lengths raise
    ShapeError."""
    from evtensor.errors import ShapeError
    from evtensor.evaluation import SvmModel
    from evtensor.events import open_text

    fields = {}
    with open_text(path_or_fh) as fh:
        for line in fh:
            name, _, rest = line.partition(" ")
            fields[name] = rest.split()

    def field(name):
        if not fields.get(name):
            raise ValueError(f"model file has no {name!r} field")
        return fields[name]

    model = SvmModel(
        weights=np.array(field("weights"), dtype=np.float64),
        bias=float(field("bias")[0]),
        mean=np.array(field("mean"), dtype=np.float64),
        std=np.array(field("std"), dtype=np.float64),
        reg_lambda=float(field("reg_lambda")[0]),
        iterations=int(field("iterations")[0]),
    )
    if not len(model.weights) == len(model.mean) == len(model.std):
        raise ShapeError(f"model file has {len(model.weights)} weights, {len(model.mean)} "
                         f"means and {len(model.std)} stds")
    return model


def line_search_full_sort(slack, step, w, dw) -> float:
    """The SVM's exact line search as a binary search over every kink ahead,
    all of them sorted first: the t >= 0 minimizing the squared-hinge primal
    at w + t dw, along which each slack 1 - margin falls by t * step."""
    from bisect import bisect_left

    from evtensor.evaluation import SVM_LAMBDA

    n = len(slack)
    kinks = np.divide(slack, step, out=np.zeros(n), where=step != 0)
    kinks = np.sort(kinks[kinks > 0])
    # the root's piece ends at the first kink where the derivative is >= 0
    lo = bisect_left(kinks, True, key=lambda t: SVM_LAMBDA * (w + t * dw) @ dw
                     - step @ np.maximum(slack - t * step, 0.0) / n >= 0)
    start = kinks[lo - 1] if lo else 0.0
    live = slack - (0.5 * (start + kinks[lo]) if lo < len(kinks) else start + 1.0) * step > 0
    offset = SVM_LAMBDA * (w @ dw) - step[live] @ slack[live] / n
    rate = SVM_LAMBDA * (dw @ dw) + step[live] @ step[live] / n
    return max(start, -offset / rate) if rate > 0 else start
