"""Background modelling of a surveillance video with tampered frames.

Builds a synthetic 30x40-pixel video of 60 frames: a static background
image under a slowly flickering illumination (a rank-one pixels x frames
matrix), sensor noise, two bright blobs moving across the scene, and
three tampered frames where the camera was covered (every pixel reads
25). Each frame is one column of the matrix. The rank-one fit is the
background model; the table compares the classical SVD with robust fits
by the relative error of the modelled background over the untouched
frames, and by the share of the blob-free pixels of those frames that
stand out from the model by more than three noise standard deviations
(false foreground; the moving blobs stand out under every fit).
"""
import numpy as np

from dpdsvd import SolverOptions, fit_svd

HEIGHT, WIDTH, FRAMES = 30, 40, 60
TAMPERED = (12, 31, 47)
NOISE = 0.1


def make_video(rng):
    """(X, background, blob mask): pixels x frames matrices."""
    yy, xx = np.mgrid[0:HEIGHT, 0:WIDTH]
    image = 4.0 + 3.0 * np.sin(xx / 7.0) * np.cos(yy / 9.0) + 0.05 * xx
    gain = 1.0 + 0.05 * np.sin(np.arange(FRAMES) / 5.0)
    background = np.outer(image.ravel(), gain)
    X = background + NOISE * rng.standard_normal(background.shape)
    blobs = np.zeros(background.shape, dtype=bool)
    for f in range(FRAMES):
        for row, speed in ((8, 0.6), (20, -0.45)):
            col = int((5 + speed * f) % WIDTH)
            cell = np.zeros((HEIGHT, WIDTH), dtype=bool)
            cell[row - 2:row + 3, max(col - 2, 0):col + 3] = True
            blobs[:, f] |= cell.ravel()
    X[blobs] = 9.0 + rng.uniform(0.0, 3.0, blobs.sum())
    X[:, list(TAMPERED)] = 25.0
    return X, background, blobs


def main():
    X, background, blobs = make_video(np.random.default_rng(7))
    clean = np.ones(FRAMES, dtype=bool)
    clean[list(TAMPERED)] = False
    print(f"{HEIGHT}x{WIDTH} pixels, {FRAMES} frames; {blobs.sum()} blob "
          f"pixel-frames; frames {list(TAMPERED)} covered (all pixels 25)\n")

    header = f"{'method':<11}{'background error':>18}{'false foreground':>18}"
    print(header)
    print("-" * len(header))
    for alpha in (0.0, 0.5, 1.0):
        dec = fit_svd(X, 1, SolverOptions(alpha=alpha))
        model = dec.lambdas[0] * np.outer(dec.U[:, 0], dec.V[:, 0])
        err = (np.linalg.norm((model - background)[:, clean])
               / np.linalg.norm(background[:, clean]))
        flagged = np.abs(X - model)[:, clean] > 3.0 * NOISE
        false = flagged[~blobs[:, clean]].mean()
        name = "svd" if alpha == 0.0 else f"alpha={alpha}"
        print(f"{name:<11}{err:>18.2e}{false:>18.1%}")

    print("\nThe covered frames and the blobs pull the classical background")
    print("away from the scene, so much of the still scene reads as")
    print("foreground. The robust fits give those cells almost no weight:")
    print("their background matches the scene to the noise level.")


if __name__ == "__main__":
    main()
