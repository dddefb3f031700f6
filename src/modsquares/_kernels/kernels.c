/* Compiled kernels: the hot loops of modsquares, in plain C.
 *
 * Mirrors `_pykernels` function by function and is loaded with ctypes
 * by `_ckernels.py`; there is no Python.h here.  The caller allocates
 * every buffer, so nothing in this file can fail to allocate, and
 * ctypes releases the GIL for the duration of each call.  The RNG
 * (SplitMix64 plus rejection-sampled index draws and a descending
 * Fisher-Yates shuffle) reproduces the pure-Python stream bit for bit.
 *
 * Preconditions, guaranteed by the Python callers: moduli are in
 * [1, 2^63) and every buffer has the length stated at its function.
 * Lengths are signed, and a negative one counts as zero.
 *
 * Build: python setup.py build_ext --inplace
 */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* Bumped whenever an exported signature changes, so that a stale
   library is refused at load time instead of being called wrongly. */
#define MSQ_ABI_VERSION 1

int msq_abi_version(void)
{
    return MSQ_ABI_VERSION;
}

/* a * b mod m for a, b < m; below 2^32 the product fits in 64 bits. */
static inline u64 mulmod(u64 a, u64 b, u64 m)
{
    if (m <= UINT32_MAX)
        return a * b % m;
    return (u64)((unsigned __int128)a * b % m);
}

static u64 powmod(u64 base, u64 exp, u64 m)
{
    u64 result = 1 % m;
    u64 b = base % m;
    while (exp) {
        if (exp & 1)
            result = mulmod(result, b, m);
        b = mulmod(b, b, m);
        exp >>= 1;
    }
    return result;
}

/* SplitMix64; constants and mixing as in modsquares.rng.SplitMix64. */
static inline u64 next_u64(u64 *state)
{
    u64 z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Uniform draw from [0, n); same acceptance region as the Python
   randbelow: reject outputs below 2^64 mod n. */
static inline u64 randbelow(u64 *state, u64 n)
{
    u64 threshold = (0 - n) % n;
    u64 u = next_u64(state);
    while (u < threshold)
        u = next_u64(state);
    return u % n;
}

/* Exact inversion count of a[0:n] by bottom-up merge counting.
   Sorts a in place; tmp holds n scratch entries.  With is_unsigned set,
   a holds uint64 values: flipping their top bit maps their order onto
   int64 order. */
i64 msq_count_inversions(i64 *a, i64 *tmp, i64 n, int is_unsigned)
{
    i64 inv = 0;
    if (is_unsigned)
        for (i64 i = 0; i < n; i++)
            a[i] = (i64)((u64)a[i] ^ (1ULL << 63));
    for (i64 width = 1; width < n; width *= 2) {
        for (i64 lo = 0; lo + width < n; lo += 2 * width) {
            i64 mid = lo + width;
            i64 hi = n - lo > 2 * width ? lo + 2 * width : n;
            i64 i = lo, j = mid, k = lo;
            /* Branch-free: on shuffled input the branch on a[j] < a[i]
               mispredicts half the time.  Ties take the left element. */
            while (i < mid && j < hi) {
                i64 x = a[i], y = a[j];
                int right = y < x;
                tmp[k++] = right ? y : x;
                inv += right ? mid - i : 0;
                i += !right;
                j += right;
            }
            while (i < mid)
                tmp[k++] = a[i++];
            /* a[j:hi] is already in place */
            memcpy(a + lo, tmp + lo, (size_t)(k - lo) * sizeof *a);
        }
    }
    return inv;
}

/* marks[r - offset] = 1 for each nonzero square r = x^2 mod p,
   x = 1..(p-1)/2 (x and p - x square alike).  The squares step by
   2x - 1 < p, so one conditional subtraction reduces each and no
   division is needed. */
static void mark_squares(i64 p, int8_t *marks, u64 offset)
{
    u64 r = 0;
    for (i64 x = 1; x <= (p - 1) / 2; x++) {
        r += (u64)(2 * x - 1);
        if (r >= (u64)p)
            r -= (u64)p;
        if (r)
            marks[r - offset] = 1;
    }
}

/* out[a-1] = (a/p) for a = 1..p-1; out holds p-1 entries. */
void msq_legendre_symbols(i64 p, int8_t *out)
{
    if (p < 2)
        return;
    memset(out, -1, (size_t)(p - 1));
    mark_squares(p, out, 1);
}

/* Entries summed per block in 32-bit lanes before they are added to the
   64-bit totals: a block's sums stay far below 2^32. */
#define PAIR_BLOCK 65536

/* Overlapping-pair counts of the symbols (a/p), a = 1..p-1, without
   building them: out = {n++, n+-, n-+, n--}, all zero for p < 3.
   is_square holds p zeroed entries.  Over the pairs (a-1, a),
   a = 2..p-1, three sums give all four counts: the squares first, the
   squares second, and the pairs of two squares.  Sums of 0/1 bytes in
   32-bit blocks vectorize; an increment at a computed index does not. */
void msq_legendre_pair_counts(i64 p, int8_t *is_square, i64 *out)
{
    i64 first = 0, second = 0, both = 0;
    if (p < 3) {
        memset(out, 0, 4 * sizeof *out);
        return;
    }
    mark_squares(p, is_square, 0);
    for (i64 lo = 2; lo < p; lo += PAIR_BLOCK) {
        i64 hi = p - lo > PAIR_BLOCK ? lo + PAIR_BLOCK : p;
        uint32_t f = 0, s = 0, b = 0;
        for (i64 a = lo; a < hi; a++) {
            uint8_t prev = (uint8_t)is_square[a - 1], cur = (uint8_t)is_square[a];
            f += prev;
            s += cur;
            b += prev & cur;
        }
        first += f;
        second += s;
        both += b;
    }
    out[0] = both;
    out[1] = first - both;
    out[2] = second - both;
    out[3] = (p - 2) - first - second + both;
}

/* is_root[g] = 1 for every g in [2, p-1] with g^e != 1 mod p for all k
   exponents; is_root holds p zeroed entries. */
void msq_primitive_root_scan(i64 p, const u64 *exponents, i64 k, int8_t *is_root)
{
    for (i64 g = 2; g < p; g++) {
        i64 i = 0;
        while (i < k && powmod((u64)g, exponents[i], (u64)p) != 1)
            i++;
        is_root[g] = i == k;
    }
}

/* Continues the walk 1, a, a^2, ... mod m whose first `filled` states
   (at least the 1) are in out[0:len].  Returns the number of distinct
   states once the walk is back at 1, -1 once it exceeds `cap` states,
   or 0 when out is full first: the caller then grows out and calls
   again, so no buffer of size cap is needed before the walk closes.
   States are below m < 2^63, so they fit in out's int64 entries. */
i64 msq_multiplier_orbit(u64 a, u64 m, i64 cap, i64 *out, i64 filled, i64 len)
{
    u64 x = (u64)out[filled - 1];
    a %= m;
    for (i64 count = filled;; count++) {
        x = mulmod(a, x, m);
        if (x == 1)
            return count;
        if (count >= cap)
            return -1;
        if (count == len)
            return 0;
        out[count] = (i64)x;
    }
}

/* Inversion count of the cycle 1, g, g^2, ... mod p for each of the k
   multipliers g in roots, counted while walking it, so no cycle is
   stored: out[r] is the count for roots[r], or -1 when the walk is back
   at 1 (or at 0) before p - 1 states, or is not at 1 after them.  tree
   holds p uint32 counters, a Fenwick tree over the states 1..p-1: at
   step i, i minus the number of earlier states below x is the number of
   inversions x closes.  Needs 2 <= p <= 2^32, so counters cannot
   overflow. */
void msq_cycle_inversions(i64 p, const u64 *roots, i64 k, uint32_t *tree, i64 *out)
{
    u64 n = (u64)p - 1;
    for (i64 r = 0; r < k; r++) {
        memset(tree, 0, (size_t)p * sizeof *tree);
        u64 g = roots[r] % (u64)p, x = 1;
        i64 inv = 0;
        for (u64 i = 0; i < n; i++) {
            if (x == 0 || (i && x == 1)) {
                inv = -1;
                break;
            }
            u64 below = 0;
            for (u64 j = x; j; j &= j - 1)
                below += tree[j];
            inv += (i64)(i - below);
            for (u64 j = x; j <= n; j += j & (0 - j))
                tree[j]++;
            x = mulmod(g, x, (u64)p);
        }
        out[r] = x == 1 ? inv : -1;
    }
}

/* Inversion counts of `iterations` shuffles of 0..t-1 into out; a and tmp
   hold t entries each. */
void msq_simulate_inversion_counts(i64 t, i64 iterations, u64 seed,
                                   i64 *a, i64 *tmp, i64 *out)
{
    u64 state = seed;
    for (i64 it = 0; it < iterations; it++) {
        for (i64 i = 0; i < t; i++)
            a[i] = i;
        for (i64 i = t - 1; i > 0; i--) {
            i64 j = (i64)randbelow(&state, (u64)i + 1);
            i64 swap = a[i];
            a[i] = a[j];
            a[j] = swap;
        }
        out[it] = msq_count_inversions(a, tmp, t, 0);
    }
}

/* Run counts of `iterations` shuffles of `half` +1s then `half` -1s into
   out; arr holds 2 * half entries. */
void msq_simulate_run_counts(i64 half, i64 iterations, u64 seed,
                             int8_t *arr, i64 *out)
{
    u64 state = seed;
    i64 n = 2 * half;
    for (i64 it = 0; it < iterations; it++) {
        for (i64 i = 0; i < n; i++)
            arr[i] = i < half ? 1 : -1;
        for (i64 i = n - 1; i > 0; i--) {
            i64 j = (i64)randbelow(&state, (u64)i + 1);
            int8_t swap = arr[i];
            arr[i] = arr[j];
            arr[j] = swap;
        }
        i64 runs = 1;
        for (i64 i = 1; i < n; i++)
            runs += arr[i] != arr[i - 1];
        out[it] = runs;
    }
}
