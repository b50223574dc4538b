"""Independent brute-force oracles.

Everything here is deliberately naive -- literal loops over the defining
formulas, or explicit unfoldings and partial contractions that the library
no longer builds -- and shares no code with the library paths it checks.
"""

import numpy as np


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


def objective_bruteforce(x, g_i, g_j, g_n):
    """Half the squared error, accumulated entry by entry."""
    recon = contract_bruteforce(g_i, g_j, g_n)
    acc = 0.0
    for v, r in zip(x.ravel(), recon.ravel()):
        acc += (v - r) ** 2
    return 0.5 * acc


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
