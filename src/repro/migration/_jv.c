/* Jonker-Volgenant shortest-augmenting-path kernel (Alg. 3 matcher).
 *
 * ``jv_solve`` is the C twin of the numpy inner loop in
 * ``matching._hungarian_numpy``: every floating-point operation runs in
 * the same order on the same values ((c - u) - v relaxation, per-step
 * ``minv -= delta`` over still-unused columns, strict-less tie-breaking,
 * first-minimum argmin scan), so with IEEE-754 doubles the assignments it
 * produces are bit-identical to the pure-numpy path -- including how cost
 * ties break.  Compile with plain -O2 and WITHOUT -ffast-math; the build
 * helper in matching.py enforces that.
 *
 * The one exported entry is ``jv_solve_many``: k independent problems,
 * problem p being rows starts[p] .. starts[p+1]-1 of one row-major matrix
 * with leading dimension ld, over its own first widths[p] columns.  It
 * writes each problem's assignment into its rows of match_out, its return
 * code into codes[p] and its own solve seconds into seconds[p], and returns
 * how many problems it could not allocate for (code -1).  A single matrix
 * (``matching.hungarian``) is the k = 1 call.
 *
 * Return codes:
 *   0  solved; match_out[i] = 0-based column of row i
 *   1  infeasible: augmenting tree exhausted every column
 *   2  infeasible: forbidden pairs block every augmenting path
 *   3  internal error: incomplete matching (unreachable)
 *  -1  allocation failure
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

static int jv_solve(const double *c, int64_t ld, int64_t n, int64_t m,
                    int64_t *match_out)
{
    /* 1-based columns with sentinel column 0, as in the numpy version. */
    double *u = calloc((size_t)(n + 1), sizeof(double));
    double *v = calloc((size_t)(m + 1), sizeof(double));
    double *minv = malloc((size_t)(m + 1) * sizeof(double));
    int64_t *match = calloc((size_t)(m + 1), sizeof(int64_t));
    int64_t *way = calloc((size_t)(m + 1), sizeof(int64_t));
    int64_t *tree = malloc((size_t)(m + 1) * sizeof(int64_t));
    unsigned char *active = malloc((size_t)(m + 1) * sizeof(unsigned char));
    int rc = 0;

    if (!u || !v || !minv || !match || !way || !tree || !active) {
        rc = -1;
        goto done;
    }

    for (int64_t i = 1; i <= n; i++) {
        match[0] = i;
        int64_t j0 = 0;
        for (int64_t j = 1; j <= m; j++) {
            minv[j] = INFINITY;
            active[j] = 1;
        }
        tree[0] = 0;
        int64_t tsize = 1;
        int64_t n_active = m;
        for (;;) {
            int64_t i0 = match[j0];
            const double *row = c + (i0 - 1) * ld;
            double ui0 = u[i0];
            for (int64_t j = 1; j <= m; j++) {
                if (!active[j])
                    continue;
                double cur = (row[j - 1] - ui0) - v[j];
                if (cur < minv[j]) {
                    minv[j] = cur;
                    way[j] = j0;
                }
            }
            /* first minimum over active columns, ascending: np.argmin */
            int64_t jb = 0;
            double delta = INFINITY;
            for (int64_t j = 1; j <= m; j++) {
                if (active[j] && minv[j] < delta) {
                    delta = minv[j];
                    jb = j;
                }
            }
            if (!isfinite(delta)) {
                rc = (n_active == 0) ? 1 : 2;
                goto done;
            }
            for (int64_t k = 0; k < tsize; k++) {
                int64_t jt = tree[k];
                u[match[jt]] += delta;
                v[jt] -= delta;
            }
            for (int64_t j = 1; j <= m; j++)
                if (active[j])
                    minv[j] -= delta;
            j0 = jb;
            active[jb] = 0;
            n_active--;
            tree[tsize++] = j0;
            if (match[j0] == 0)
                break;
        }
        while (j0 != 0) {
            int64_t j1 = way[j0];
            match[j0] = match[j1];
            j0 = j1;
        }
    }

    for (int64_t i = 0; i < n; i++)
        match_out[i] = -1;
    for (int64_t j = 1; j <= m; j++)
        if (match[j] > 0)
            match_out[match[j] - 1] = j - 1;
    for (int64_t i = 0; i < n; i++)
        if (match_out[i] < 0) {
            rc = 3; /* "internal error: incomplete matching" (unreachable) */
            goto done;
        }

done:
    free(u);
    free(v);
    free(minv);
    free(match);
    free(way);
    free(tree);
    free(active);
    return rc;
}

int64_t jv_solve_many(const double *c, int64_t ld, int64_t k,
                      const int64_t *starts, const int64_t *widths,
                      int64_t *match_out, int32_t *codes, double *seconds)
{
    struct timespec t0, t1;
    int64_t unsolved = 0;
    for (int64_t p = 0; p < k; p++) {
        clock_gettime(CLOCK_MONOTONIC, &t0);
        codes[p] = jv_solve(c + starts[p] * ld, ld, starts[p + 1] - starts[p],
                            widths[p], match_out + starts[p]);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        seconds[p] = (double)(t1.tv_sec - t0.tv_sec)
                     + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
        unsolved += codes[p] == -1;
    }
    return unsolved;
}
