/*
 * The walk of simulate._walk on a fresh cluster, compiled.
 *
 * Every random draw goes through numpy's own routines
 * (numpy/random/distributions.h, linked from numpy's libnpyrandom.a) on the
 * caller's bit generator, in the order the Python kernel makes them. So the
 * final depth, the number of nodes grown and the generator's state
 * afterwards are bit-identical to _walk's.
 *
 * numpy's binomial sampler keeps its set-up (the exp, log and sqrt work
 * that depends only on n and p) in the binomial_t it is given, and redoes
 * it whenever a call's (n, p) differs from the last one there. A green
 * expansion alternates thinning at p, colouring at 1-rho and, for a
 * binomial law, the law's own draw, so one shared binomial_t would be set
 * up afresh on nearly every call. Each draw role has its own slots
 * instead: the law's draw one, thinning and colouring one per count below
 * BINOMIAL_SLOTS and one shared by larger counts. A slot holds exactly
 * what numpy would compute again, so the draws are unchanged.
 *
 * The arena is the Python Cluster's `first` and `nchild` columns: node v's
 * children are first[v] .. first[v]+nchild[v]-1, and nchild[v] < 0 marks v
 * as not expanded yet, its sign standing in for the colour (GREEN_LEAF,
 * RED_LEAF; pipe nodes are built expanded). There are no parent links: the
 * walk keeps the path from the root to its position as a stack, pushed on
 * a step down and popped on a step up, and the final depth is its height.
 * Columns and stack double as they fill. Small ones live on the heap,
 * whose pages the next walk reuses without faulting them in again; large
 * ones live in anonymous mappings that mremap grows by moving pages, not
 * copying them, so a large arena is never held twice and only the pages
 * written become resident. Indices are int32, so max_nodes must be below
 * 2^31.
 *
 * A call touches no global state: calls on distinct bit generators may run
 * at once, on threads sharing one walk_params.
 */
#define _GNU_SOURCE
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#include "numpy/random/distributions.h"

/* law kinds and status codes: keep in step with simulate.py */
enum { LAW_PMF, LAW_GEOMETRIC, LAW_POISSON, LAW_BINOMIAL, LAW_PIPES };
enum { WALK_OK, WALK_NODE_CAP, WALK_GREEN_CAP, WALK_BUSH_CAP, WALK_NO_MEMORY };

#define UNIFORM_BLOCK 8192
#define FIRST_CAP 1024
#define HEAP_CAP (1 << 16)
#define GREEN_LEAF (-1)
#define RED_LEAF (-2)
#define BINOMIAL_SLOTS 64

typedef struct {
    int64_t law;
    int64_t n;              /* binomial n, or the number of pmf weights */
    double a;               /* geometric a, poisson mu or binomial q */
    const double *weights;  /* pmf weights */
    double p;
    double rho;
    const double *cdf;      /* bush inverse CDF, covering `coverage` */
    int64_t ncdf;
    double coverage;
    int64_t max_rejections;
    int64_t max_nodes;
    int64_t horizon;
} walk_params;

/* A growable int32 column; data is NULL until the first grow. */
typedef struct {
    int32_t *data;
    int64_t cap;
} column;

typedef struct {
    const walk_params *prm;
    bitgen_t *bg;
    binomial_t law_binomial, thin[BINOMIAL_SLOTS + 1], colour[BINOMIAL_SLOTS + 1];
    column first, nchild, path;
    int64_t size;
} walk_state;

/* Make room for n entries in c, doubling from FIRST_CAP but never past
 * limit (the caller keeps n <= limit). Up to HEAP_CAP entries a column
 * lives on the heap, whose pages the next walk reuses. Past that it moves
 * once to an anonymous mapping, which mremap grows without copying. realloc
 * alone would not do: once a freed block has raised glibc's mmap threshold,
 * large blocks come from the heap too, where growing copies them and freed
 * ones stay resident, so repeated calls held about 1.7 times the memory. */
static int grow(column *c, int64_t n, int64_t limit)
{
    if (n <= c->cap)
        return WALK_OK;
    int64_t cap = c->cap ? c->cap : FIRST_CAP;
    while (cap < n)
        cap *= 2;
    if (cap > limit)
        cap = limit;
    size_t bytes = (size_t)cap * sizeof(int32_t), held = (size_t)c->cap * sizeof(int32_t);
    void *grown;
    if (cap <= HEAP_CAP) {
        grown = realloc(c->data, bytes);
        if (grown == NULL)
            return WALK_NO_MEMORY;
    } else if (c->cap > HEAP_CAP) {
        grown = mremap(c->data, held, bytes, MREMAP_MAYMOVE);
    } else {
        grown = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (grown != MAP_FAILED && held) {
            memcpy(grown, c->data, held);
            free(c->data);
        }
    }
    if (grown == MAP_FAILED)
        return WALK_NO_MEMORY;
    c->data = grown;
    c->cap = cap;
    return WALK_OK;
}

static void release(column *c)
{
    if (c->cap > HEAP_CAP)
        munmap(c->data, (size_t)c->cap * sizeof(int32_t));
    else
        free(c->data);
}

/* Claim n more nodes under the cap; *start is the first one's index. */
static int reserve(walk_state *s, int64_t n, int64_t *start)
{
    if (n > s->prm->max_nodes - s->size)
        return WALK_NODE_CAP;
    int status = grow(&s->first, s->size + n, s->prm->max_nodes);
    if (status == WALK_OK)
        status = grow(&s->nchild, s->size + n, s->prm->max_nodes);
    if (status)
        return status;
    *start = s->size;
    s->size += n;
    return WALK_OK;
}

/* Cluster._attach, and PipesCluster's pipe after the skeleton children. */
static int attach(walk_state *s, int64_t node, int64_t greens, int64_t reds)
{
    int64_t n = greens + reds, start;
    int status = reserve(s, n, &start);
    if (status)
        return status;
    for (int64_t i = start; i < start + n; i++) {
        s->first.data[i] = 0;
        s->nchild.data[i] = i < start + greens ? GREEN_LEAF : RED_LEAF;
    }
    s->first.data[node] = (int32_t)start;
    s->nchild.data[node] = (int32_t)n;
    if (s->prm->law != LAW_PIPES)
        return WALK_OK;
    int64_t length = random_geometric(s->bg, 1.0 - s->prm->p) - 1;
    if (length == 0)
        return WALK_OK;
    status = reserve(s, length, &start);
    if (status)
        return status;
    for (int64_t i = start; i < start + length; i++) {
        s->first.data[i] = (int32_t)(i + 1);
        s->nchild.data[i] = i < start + length - 1;
    }
    s->nchild.data[node] += 1;
    return WALK_OK;
}

/* The slot of a role's table for count n: one per count below
 * BINOMIAL_SLOTS, and one shared by every larger count. */
static binomial_t *slot(binomial_t *role, int64_t n)
{
    return &role[n < BINOMIAL_SLOTS ? n : BINOMIAL_SLOTS];
}

/* The offspring law's sample method. */
static int64_t law_sample(walk_state *s)
{
    const walk_params *prm = s->prm;
    switch (prm->law) {
    case LAW_PMF: {
        double u = next_double(s->bg), cum = 0.0;
        for (int64_t k = 0; k < prm->n; k++) {
            cum += prm->weights[k];
            if (u < cum)
                return k;
        }
        return prm->n - 1;
    }
    case LAW_GEOMETRIC:
        return random_geometric(s->bg, 1.0 - prm->a) - 1;
    case LAW_POISSON:
        return random_poisson(s->bg, prm->a);
    default:
        return random_binomial(s->bg, prm->a, prm->n, &s->law_binomial);
    }
}

/* Cluster._thinned_count, or PipesCluster's. */
static int64_t thinned_count(walk_state *s)
{
    if (s->prm->law == LAW_PIPES)
        return random_binomial(s->bg, s->prm->p, 2, slot(s->thin, 2));
    int64_t k = law_sample(s);
    return k ? random_binomial(s->bg, s->prm->p, k, slot(s->thin, k)) : 0;
}

static int expand_green(walk_state *s, int64_t node)
{
    double rho = s->prm->rho;
    for (int64_t i = 0; i < s->prm->max_rejections; i++) {
        int64_t c = thinned_count(s);
        if (c == 0)
            continue;
        int64_t greens = rho > 0.0 ? random_binomial(s->bg, 1.0 - rho, c, slot(s->colour, c)) : c;
        if (greens == 0)
            continue;
        return attach(s, node, greens, c - greens);
    }
    return WALK_GREEN_CAP;
}

/* Cluster.expand_red with BushSampler.sample. */
static int expand_red(walk_state *s, int64_t node)
{
    const walk_params *prm = s->prm;
    for (int64_t i = 0; i < prm->max_rejections; i++) {
        double u = next_double(s->bg);
        if (u < prm->coverage) {
            for (int64_t k = 0; k < prm->ncdf; k++) {
                if (u < prm->cdf[k])
                    return attach(s, node, 0, k);
            }
        }
    }
    return WALK_BUSH_CAP;
}

static int walk(walk_state *s, int64_t *depth)
{
    double buf[UNIFORM_BLOCK];
    int64_t pos = 0, cur = 0, height = 0;
    int status;
    random_standard_uniform_fill(s->bg, UNIFORM_BLOCK, buf);
    for (int64_t t = 0; t < s->prm->horizon; t++) {
        int64_t n = s->nchild.data[cur];
        if (n < 0) {
            status = n == GREEN_LEAF ? expand_green(s, cur) : expand_red(s, cur);
            if (status)
                return status;
            n = s->nchild.data[cur];
        }
        if (pos == UNIFORM_BLOCK) {
            random_standard_uniform_fill(s->bg, UNIFORM_BLOCK, buf);
            pos = 0;
        }
        double u = buf[pos++];
        int64_t j = cur ? (int64_t)(u * (double)(n + 1)) : (int64_t)(u * (double)n) + 1;
        if (j == 0) {
            cur = s->path.data[--height];
        } else {
            /* the path is shorter than the arena, which is under max_nodes */
            if (height == s->path.cap && (status = grow(&s->path, height + 1, s->prm->max_nodes)))
                return status;
            s->path.data[height++] = (int32_t)cur;
            cur = s->first.data[cur] + j - 1;
        }
    }
    *depth = height;
    return WALK_OK;
}

/* Walk prm->horizon steps from the root of a fresh cluster; out receives
 * {final depth, nodes grown}. Returns a WALK_* status. The caller keeps
 * 1 <= max_nodes < 2^31. */
int gw_walk(bitgen_t *bg, const walk_params *prm, int64_t *out)
{
    walk_state s = {.prm = prm, .bg = bg, .size = 1};
    int status = grow(&s.first, 1, prm->max_nodes);
    if (status == WALK_OK)
        status = grow(&s.nchild, 1, prm->max_nodes);
    if (status == WALK_OK) {
        /* the root: green, not expanded */
        s.first.data[0] = 0;
        s.nchild.data[0] = GREEN_LEAF;
        status = walk(&s, &out[0]);
    }
    out[1] = s.size;
    release(&s.first);
    release(&s.nchild);
    release(&s.path);
    return status;
}
