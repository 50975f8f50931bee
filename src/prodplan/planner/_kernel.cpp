// Compiled search core of the embedded planner.
//
// Plain C++11 behind a C ABI, compiled on demand and loaded through
// ctypes by _kernel.py; it needs no Python headers. It mirrors
// _pysearch.py step for step (action scan order, tie-breaking, deferred
// evaluation, limit checks), so both cores return the same statuses,
// plans and counters.
//
// It exports the same one best-first search, search: A* or deferred
// greedy best-first on a blind, hmax or pattern database heuristic, in
// one loop over the forward frontier alone or, for greedy, over a
// forward and a backward frontier that meet in the middle. It also
// builds the compiled core's pattern tables: pattern_invariants runs the
// invariant fixpoint and pattern_tables projects the actions onto each
// pattern and runs its backward Dijkstra, over word bit sets, to the same
// results as patterns.py's _invariants and _tables. patterns.py still
// finds the variables and chooses the patterns between the two calls.
//
// A state is a set of fluents packed into 64-bit words. Every distinct
// state is stored once in a registry and known by its index there; g
// values and parent links live in tables indexed the same way.
//
// Successors come from a watched-precondition index, built once per
// action set and search (the successor generator of Fast Downward,
// Helmert, JAIR 26, 2006, cut down to STRIPS). Each action is watched
// under its positive precondition with the fewest consumers, the lower
// fluent on a tie; an action without positive preconditions is always a
// candidate. An expansion marks the actions watched under the state's
// true fluents in an action bit set and gives each marked action the
// full applicability test in ascending action index, so the scan order,
// the successor order and every count equal those of a scan over all
// actions. The index is a list of actions per fluent, so it grows with
// the actions and not with their product with the fluents.
//
// An action set arrives as three flat arrays. For action a, the fluents
// of its positive preconditions, negative preconditions, add effects and
// delete effects are fluents[start[4a] .. start[4a+1]), then up to
// start[4a+2], start[4a+3] and start[4a+4]; its cost is cost[a].
//
// A side's pattern tables arrive as five arrays: fluent f sets variable
// var_of[f] (-1: none) to value_of[f], and a variable none of whose
// fluents holds is 0; pattern k is layout[5k .. 5k+5) = (offset, var_a,
// stride_a, var_b, stride_b), and a state's entry in it is
// table[offset + value[var_a] * stride_a + value[var_b] * stride_b].

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <utility>
#include <vector>

namespace {

typedef uint64_t Word;

enum Status { SOLVED = 0, UNSOLVABLE = 1, TIMEOUT = 2, MEMOUT = 3 };
enum Part { PRE_POS = 0, PRE_NEG = 1, ADD = 2, DEL = 3, PARTS = 4 };
enum Heuristic { H_BLIND = 0, H_MAX = 1 };

const double INF = std::numeric_limits<double>::infinity();
// also the pattern table entry of a dead end (DEAD_END in _pysearch.py)
const int64_t UNREACHED = int64_t(1) << 62;
// time limits are checked whenever the expansion count is a multiple of 128
const int64_t CHECK_MASK = 0x7F;

// The arrays stay the caller's; the kernel reads them during the call.
struct ActionSet {
    int n;
    const int* start;
    const int* fluents;
    const int64_t* cost;

    const int* begin(int a, int part) const { return fluents + start[PARTS * a + part]; }
    const int* end(int a, int part) const { return fluents + start[PARTS * a + part + 1]; }
};

int words_for(int n_fluents) { return n_fluents > 64 ? (n_fluents + 63) >> 6 : 1; }

void set_bits(Word* mask, const int* first, const int* last) {
    for (; first != last; ++first) mask[*first >> 6] |= Word(1) << (*first & 63);
}

// Actions as word masks: preconditions to test, add effects and the
// complement of the delete effects to apply; and the successor index
// (see the header) that picks the actions to test.
class Masks {
  public:
    Masks(const ActionSet& actions, int words)
        : n_(actions.n), words_(words), action_words_(words_for(actions.n)),
          bits_(size_t(actions.n) * PARTS * words, 0), always_(action_words_, 0),
          watch_start_(size_t(words) * 64 + 1, 0), watch_action_(actions.n),
          candidates_(action_words_) {
        std::vector<int> consumers(watch_start_.size(), 0);
        for (int a = 0; a < n_; ++a) {
            for (int part = 0; part < PARTS; ++part)
                set_bits(row(a, part), actions.begin(a, part), actions.end(a, part));
            Word* keep = row(a, DEL);
            for (int w = 0; w < words_; ++w) keep[w] = ~keep[w];
            for (int w = 0; w < words_; ++w)
                for (Word bits = row(a, PRE_POS)[w]; bits; bits &= bits - 1)
                    ++consumers[w * 64 + __builtin_ctzll(bits)];
        }
        // watched[a]: the fluent action a is watched under, -1 for none;
        // then the actions watched under each fluent, in action order (CSR)
        std::vector<int> watched(n_, -1);
        for (int a = 0; a < n_; ++a) {
            const Word* pos = row(a, PRE_POS);
            for (int w = 0; w < words_; ++w)
                for (Word bits = pos[w]; bits; bits &= bits - 1) {
                    const int f = w * 64 + __builtin_ctzll(bits);
                    if (watched[a] < 0 || consumers[f] < consumers[watched[a]]) watched[a] = f;
                }
            if (watched[a] < 0)
                mark(&always_[0], a);
            else
                ++watch_start_[watched[a] + 1];
        }
        for (size_t f = 1; f < watch_start_.size(); ++f) watch_start_[f] += watch_start_[f - 1];
        std::vector<int> fill(watch_start_.begin(), watch_start_.end() - 1);
        for (int a = 0; a < n_; ++a)
            if (watched[a] >= 0) watch_action_[fill[watched[a]]++] = a;
    }

    // Calls visit(a) for each action a applicable in the state, in
    // ascending order, until visit returns false.
    template <class Visit>
    void each_applicable(const Word* state, Visit visit) const {
        Word* candidates = &candidates_[0];
        std::copy(always_.begin(), always_.end(), candidates);
        for (int w = 0; w < words_; ++w)
            for (Word bits = state[w]; bits; bits &= bits - 1) {
                const int f = w * 64 + __builtin_ctzll(bits);
                for (int j = watch_start_[f]; j < watch_start_[f + 1]; ++j)
                    mark(candidates, watch_action_[j]);
            }
        for (int k = 0; k < action_words_; ++k)
            for (Word bits = candidates[k]; bits; bits &= bits - 1) {
                const int a = k * 64 + __builtin_ctzll(bits);
                if (applicable(a, state) && !visit(a)) return;
            }
    }

    void apply(int a, const Word* state, Word* out) const {
        const Word* add = row(a, ADD);
        const Word* keep = row(a, DEL);
        for (int w = 0; w < words_; ++w) out[w] = (state[w] & keep[w]) | add[w];
    }

  private:
    static void mark(Word* set, int a) { set[a >> 6] |= Word(1) << (a & 63); }

    bool applicable(int a, const Word* state) const {
        const Word* pos = row(a, PRE_POS);
        const Word* neg = row(a, PRE_NEG);
        for (int w = 0; w < words_; ++w)
            if ((state[w] & pos[w]) != pos[w] || (state[w] & neg[w])) return false;
        return true;
    }

    Word* row(int a, int part) { return &bits_[(size_t(a) * PARTS + part) * words_]; }
    const Word* row(int a, int part) const { return &bits_[(size_t(a) * PARTS + part) * words_]; }

    int n_, words_, action_words_;
    std::vector<Word> bits_;
    std::vector<Word> always_;  // the actions without positive preconditions
    std::vector<int> watch_start_, watch_action_;
    mutable std::vector<Word> candidates_;  // scratch of each_applicable
};

// The fluents pending at each cost level of one hmax sweep: a bucket per
// distinct level, and the levels not yet taken with their buckets, kept
// in decreasing order. A zero-cost action adds to the level being swept,
// in its bucket or in a new bucket of that level, which is taken next.
// Memory follows the distinct levels of a sweep, not its largest cost.
class Levels {
  public:
    Levels() : used_(0), last_level_(-1), last_bucket_(0) {}

    // Empties every bucket and forgets every level.
    void clear() {
        for (int b = 0; b < used_; ++b) buckets_[b].clear();
        used_ = 0;
        pending_.clear();
        last_level_ = -1;
    }

    bool empty() const { return pending_.empty(); }

    // Takes the least level not yet taken; returns it and its bucket.
    std::pair<int64_t, int> pop() {
        const std::pair<int64_t, int> least = pending_.back();
        pending_.pop_back();
        last_level_ = least.first;
        last_bucket_ = least.second;
        return least;
    }

    // Adds fluent f to the bucket of the level, new if needed.
    void add(int64_t level, int f) {
        if (level != last_level_) {
            last_level_ = level;
            last_bucket_ = find(level);
        }
        buckets_[last_bucket_].push_back(f);
    }

    // The bucket may grow while the caller reads it: index it afresh.
    const std::vector<int>& bucket(int b) const { return buckets_[b]; }

  private:
    // the bucket of a level not yet taken, new if needed
    int find(int64_t level) {
        std::vector<std::pair<int64_t, int> >::iterator at = std::lower_bound(
            pending_.begin(), pending_.end(), level,
            [](const std::pair<int64_t, int>& p, int64_t l) { return p.first > l; });
        if (at != pending_.end() && at->first == level) return at->second;
        if (size_t(used_) == buckets_.size()) buckets_.push_back(std::vector<int>());
        pending_.insert(at, std::make_pair(level, used_));
        return used_++;
    }

    int used_;  // buckets in use in this sweep
    std::vector<std::vector<int> > buckets_;
    std::vector<std::pair<int64_t, int> > pending_;
    int64_t last_level_;  // the level of the bucket add() used last, -1 for none
    int last_bucket_;
};

// hmax: the delete-relaxed cost of reaching the goal fluents from a
// state, ignoring negative conditions, where a fluent costs its most
// expensive precondition plus the action. The sweep takes one cost level
// at a time, as the pure core's does, and finds the same values; a
// fluent is pending in the bucket of each level it was reached at, and
// counts at its least.
class Hmax {
  public:
    Hmax(int n_fluents, const ActionSet& actions, const int* goal, int n_goal)
        : n_fluents_(n_fluents), actions_(actions),
          cons_start_(n_fluents + 1, 0), pre_count_(actions.n), is_goal_(n_fluents, 0),
          value_(n_fluents), agg_(actions.n) {
        // consumers of each fluent, in action order (CSR)
        for (int a = 0; a < actions.n; ++a)
            for (const int* f = actions.begin(a, PRE_POS); f != actions.end(a, PRE_POS); ++f)
                ++cons_start_[*f + 1];
        for (int f = 0; f < n_fluents_; ++f) cons_start_[f + 1] += cons_start_[f];
        cons_action_.resize(cons_start_[n_fluents_]);
        std::vector<int> fill(cons_start_.begin(), cons_start_.end() - 1);
        for (int a = 0; a < actions.n; ++a) {
            pre_count_[a] = int(actions.end(a, PRE_POS) - actions.begin(a, PRE_POS));
            for (const int* f = actions.begin(a, PRE_POS); f != actions.end(a, PRE_POS); ++f)
                cons_action_[fill[*f]++] = a;
        }
        for (int i = 0; i < n_goal; ++i) {
            if (!is_goal_[goal[i]]) goals_.push_back(goal[i]);
            is_goal_[goal[i]] = 1;
        }
    }

    double operator()(const Word* state) {
        if (goals_.empty()) return 0.0;
        levels_.clear();
        std::fill(value_.begin(), value_.end(), UNREACHED);
        std::fill(agg_.begin(), agg_.end(), 0);
        remaining_ = pre_count_;
        for (int w = 0; w * 64 < n_fluents_; ++w)
            for (Word bits = state[w]; bits; bits &= bits - 1)
                reach(w * 64 + __builtin_ctzll(bits), 0);
        for (int a = 0; a < actions_.n; ++a)
            if (remaining_[a] == 0) fire(a, actions_.cost[a]);
        size_t goal_left = goals_.size();
        while (!levels_.empty() && goal_left > 0) {
            const std::pair<int64_t, int> level = levels_.pop();
            const int64_t cur = level.first;
            // fire() may append to this bucket
            for (size_t k = 0; k < levels_.bucket(level.second).size(); ++k) {
                const int f = levels_.bucket(level.second)[k];
                if (value_[f] != cur) continue;  // reached cheaper before
                if (is_goal_[f] && --goal_left == 0) break;
                for (int j = cons_start_[f]; j < cons_start_[f + 1]; ++j) {
                    const int a = cons_action_[j];
                    if (cur > agg_[a]) agg_[a] = cur;
                    if (--remaining_[a] == 0) fire(a, agg_[a] + actions_.cost[a]);
                }
            }
        }
        int64_t total = 0;
        for (size_t i = 0; i < goals_.size(); ++i) {
            int64_t v = value_[goals_[i]];
            if (v >= UNREACHED) return INF;
            if (v > total) total = v;
        }
        return double(total);
    }

  private:
    void fire(int a, int64_t cost) {
        for (const int* f = actions_.begin(a, ADD); f != actions_.end(a, ADD); ++f) reach(*f, cost);
    }

    void reach(int f, int64_t cost) {
        if (cost >= value_[f]) return;
        value_[f] = cost;
        levels_.add(cost, f);
    }

    int n_fluents_;
    ActionSet actions_;
    std::vector<int> cons_start_, cons_action_;
    std::vector<int> pre_count_;
    std::vector<int> goals_;  // distinct goal fluents
    std::vector<char> is_goal_;
    // scratch, reused across calls
    std::vector<int64_t> value_, agg_;
    std::vector<int> remaining_;
    Levels levels_;
};

// The caller's pattern tables of one side (see the header); the kernel
// reads them during the call.
struct Patterns {
    int n_vars;
    const int* var_of;
    const int* value_of;
    int n_patterns;
    const int* layout;
    const int64_t* table;
};

// The largest pattern table entry of a state, INF for a dead end.
class PatternLookup {
  public:
    PatternLookup(int n_fluents, const Patterns& patterns)
        : n_fluents_(n_fluents), p_(patterns), value_(patterns.n_vars) {}

    double operator()(const Word* state) {
        std::fill(value_.begin(), value_.end(), 0);
        for (int w = 0; w * 64 < n_fluents_; ++w)
            for (Word bits = state[w]; bits; bits &= bits - 1) {
                const int f = w * 64 + __builtin_ctzll(bits);
                if (p_.var_of[f] >= 0) value_[p_.var_of[f]] = p_.value_of[f];
            }
        int64_t h = 0;
        for (int k = 0; k < p_.n_patterns; ++k) {
            const int* l = p_.layout + 5 * k;
            const int64_t entry = p_.table[l[0] + value_[l[1]] * l[2] + value_[l[3]] * l[4]];
            if (entry > h) h = entry;
        }
        return h >= UNREACHED ? INF : double(h);
    }

  private:
    int n_fluents_;
    Patterns p_;
    std::vector<int> value_;
};

// Interns states: each distinct state is copied once into a pool and
// gets the next index; an open-addressing table maps states to indices.
class StateRegistry {
  public:
    explicit StateRegistry(int words) : words_(words), size_(0), slots_(1 << 10, -1) {}

    int size() const { return size_; }
    const Word* operator[](int id) const { return &pool_[size_t(id) * words_]; }

    // Returns the index of the state and whether it was new.
    std::pair<int, bool> insert(const Word* state) {
        if (2 * size_t(size_) >= slots_.size()) grow();
        size_t i = probe(state);
        if (slots_[i] >= 0) return std::make_pair(slots_[i], false);
        pool_.insert(pool_.end(), state, state + words_);
        slots_[i] = size_;
        return std::make_pair(size_++, true);
    }

  private:
    size_t hash(const Word* state) const {
        uint64_t h = 0x9E3779B97F4A7C15ULL;
        for (int w = 0; w < words_; ++w) {
            h ^= state[w];
            h ^= h >> 33;
            h *= 0xFF51AFD7ED558CCDULL;
            h ^= h >> 33;
        }
        return size_t(h);
    }

    // the slot holding the state, or the empty slot where it belongs
    size_t probe(const Word* state) const {
        size_t mask = slots_.size() - 1;
        for (size_t i = hash(state) & mask;; i = (i + 1) & mask) {
            int id = slots_[i];
            if (id < 0 || std::memcmp((*this)[id], state, words_ * sizeof(Word)) == 0) return i;
        }
    }

    void grow() {
        std::vector<int> old(slots_.size() * 2, -1);
        old.swap(slots_);
        for (int id = 0; id < size_; ++id) slots_[probe((*this)[id])] = id;
    }

    int words_;
    int size_;
    std::vector<Word> pool_;
    std::vector<int> slots_;
};

struct Entry {
    double f, h;
    int64_t seq, g;
    int sid;
};

// priority_queue pops its largest element: order by (f, h, seq) reversed
struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
        if (a.f != b.f) return a.f > b.f;
        if (a.h != b.h) return a.h > b.h;
        return a.seq > b.seq;
    }
};

typedef std::priority_queue<Entry, std::vector<Entry>, Later> OpenList;

double monotonic() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

// A time limit of 0 means no limit.
class Deadline {
  public:
    explicit Deadline(double seconds) : set_(seconds != 0), at_(monotonic() + seconds) {}
    bool passed() const { return set_ && monotonic() > at_; }

  private:
    bool set_;
    double at_;
};

struct Goal {
    std::vector<Word> pos, neg;

    Goal(int words, const int* goal_pos, int n_pos, const int* goal_neg, int n_neg)
        : pos(words, 0), neg(words, 0) {
        set_bits(&pos[0], goal_pos, goal_pos + n_pos);
        set_bits(&neg[0], goal_neg, goal_neg + n_neg);
    }

    bool holds(const Word* state) const {
        for (size_t w = 0; w < pos.size(); ++w)
            if ((state[w] & pos[w]) != pos[w] || (state[w] & neg[w])) return false;
        return true;
    }
};

std::vector<Word> pack(int words, const int* fluents, int n) {
    std::vector<Word> state(words, 0);
    set_bits(&state[0], fluents, fluents + n);
    return state;
}

// The search's findings; plans are action indices in application order.
struct Result {
    int64_t expanded, generated, cost;
    std::vector<int> plan, plan_b;

    Result() : expanded(0), generated(0), cost(0) {}
};

// Action indices along the parent links from the root to sid.
std::vector<int> unwind(const std::vector<int>& parent_action,
                        const std::vector<int>& parent_state, int sid) {
    std::vector<int> steps;
    for (; parent_action[sid] >= 0; sid = parent_state[sid]) steps.push_back(parent_action[sid]);
    return std::vector<int>(steps.rbegin(), steps.rend());
}

// One side of the search: its successor index, its heuristic (hmax, a
// pattern lookup, or neither for blind), its open list and its records;
// g is -1 where the side has not recorded a state. The heuristic is the
// lookup of patterns when they are given, else hmax toward the fluents
// goal for H_MAX.
struct Frontier {
    Masks masks;
    const int64_t* cost;
    std::unique_ptr<Hmax> hmax;
    std::unique_ptr<PatternLookup> lookup;
    OpenList open;
    int64_t seq;
    std::vector<int64_t> g;
    std::vector<int> parent_action, parent_state;

    Frontier(int n_fluents, const ActionSet& actions, int heuristic, const Patterns* patterns,
             const int* goal, int n_goal)
        : masks(actions, words_for(n_fluents)), cost(actions.cost), seq(0) {
        if (patterns != NULL)
            lookup.reset(new PatternLookup(n_fluents, *patterns));
        else if (heuristic == H_MAX)
            hmax.reset(new Hmax(n_fluents, actions, goal, n_goal));
    }

    double h(const Word* state) {
        if (lookup) return (*lookup)(state);
        return hmax ? (*hmax)(state) : 0.0;
    }

    void track(int64_t g0) {
        g.push_back(g0);
        parent_action.push_back(-1);
        parent_state.push_back(0);
    }
};

// The best-first loop of both modes. optimal is A*: h is evaluated when a
// state is generated, a cheaper path reopens a state, and the open list
// is ordered by (g + h, h, seq). Otherwise it is deferred greedy: a state
// is queued under its parent's h and evaluated when popped, where a dead
// end is skipped; a state is recorded once, and the order is (h, h, seq).
// bwd, greedy only, is a second frontier from start_b; the frontiers
// expand alternately and stop at the first state both have recorded.
template <bool optimal>
int run(const std::vector<Word>& start_f, const Goal& goal, Frontier& fwd,
        const std::vector<Word>& start_b, Frontier* bwd, const Deadline& deadline,
        int64_t node_limit, Result& out) {
    if (bwd != NULL && start_f == start_b) return SOLVED;
    const int words = int(start_f.size());
    const double hf0 = fwd.h(&start_f[0]);
    if (hf0 == INF) return UNSOLVABLE;

    StateRegistry states(words);
    states.insert(&start_f[0]);
    fwd.track(0);
    fwd.open.push(Entry{hf0, hf0, 0, 0, 0});
    if (bwd != NULL) {
        const double hb0 = bwd->h(&start_b[0]);
        states.insert(&start_b[0]);
        fwd.track(-1);
        bwd->track(-1);
        bwd->track(0);
        if (hb0 != INF) bwd->open.push(Entry{hb0, hb0, 0, 0, 1});
    }
    Frontier* const sides[2] = {&fwd, bwd};
    const int n_sides = bwd ? 2 : 1;
    std::vector<Word> state(words), succ(words);
    int meet = -1;

    while (!fwd.open.empty() && meet < 0) {
        if ((out.expanded & CHECK_MASK) == 0 && deadline.passed()) return TIMEOUT;
        for (int side = 0; side < n_sides && meet < 0; ++side) {
            Frontier& own = *sides[side];
            const Frontier* other = sides[1 - side];
            if (own.open.empty()) continue;
            const Entry e = own.open.top();
            own.open.pop();
            if (e.g != own.g[e.sid]) continue;  // superseded by a cheaper path
            std::memcpy(&state[0], states[e.sid], words * sizeof(Word));
            if (side == 0 && goal.holds(&state[0])) {
                out.plan = unwind(fwd.parent_action, fwd.parent_state, e.sid);
                out.cost = e.g;
                return SOLVED;
            }
            double h_here = 0.0;
            if (!optimal) {
                h_here = own.h(&state[0]);
                if (h_here == INF) continue;  // proven dead end, never expand
            }
            ++out.expanded;
            own.masks.each_applicable(&state[0], [&](int a) {
                own.masks.apply(a, &state[0], &succ[0]);
                const int64_t ng = e.g + own.cost[a];
                const std::pair<int, bool> found = states.insert(&succ[0]);
                const int nid = found.first;
                if (found.second) {
                    for (int s = 0; s < n_sides; ++s) sides[s]->track(-1);
                } else if (own.g[nid] >= 0 && (!optimal || own.g[nid] <= ng)) {
                    return true;
                }
                own.g[nid] = ng;
                own.parent_action[nid] = a;
                own.parent_state[nid] = e.sid;
                ++out.generated;
                if (other != NULL && other->g[nid] >= 0) {
                    meet = nid;
                    return false;
                }
                if (!optimal) {
                    // deferred evaluation: queue under the parent's h
                    own.open.push(Entry{h_here, h_here, ++own.seq, ng, nid});
                } else {
                    const double h = own.h(&succ[0]);
                    if (h != INF) own.open.push(Entry{double(ng) + h, h, ++own.seq, ng, nid});
                }
                return true;
            });
            // every state in the registry is recorded by one side
            if (meet < 0 && node_limit != 0 && states.size() > node_limit) return MEMOUT;
        }
    }
    if (meet < 0) return UNSOLVABLE;
    out.cost = fwd.g[meet] + bwd->g[meet];
    out.plan = unwind(fwd.parent_action, fwd.parent_state, meet);
    out.plan_b = unwind(bwd->parent_action, bwd->parent_state, meet);
    return SOLVED;
}

// Rows of equal-width bit sets, numbered from 0.
class BitRows {
  public:
    BitRows(size_t n, int words) : words_(words), bits_(n * words, 0) {}
    Word* operator[](int r) { return bits_.data() + size_t(r) * words_; }
    const Word* operator[](int r) const { return bits_.data() + size_t(r) * words_; }

  private:
    int words_;
    std::vector<Word> bits_;
};

bool test_bit(const Word* set, int f) { return set[f >> 6] >> (f & 63) & 1; }
void clear_bit(Word* set, int f) { set[f >> 6] &= ~(Word(1) << (f & 63)); }

// Moves the bits of row that lie in mask into bad; true if there were any.
bool take(Word* row, const Word* mask, Word* bad, int words) {
    Word any = 0;
    for (int w = 0; w < words; ++w) {
        bad[w] = row[w] & mask[w];
        row[w] ^= bad[w];
        any |= bad[w];
    }
    return any != 0;
}

template <class Visit>
void each_bit(const Word* set, int words, Visit visit) {
    for (int w = 0; w < words; ++w)
        for (Word bits = set[w]; bits; bits &= bits - 1) visit(w * 64 + __builtin_ctzll(bits));
}

// The invariant fixpoint of patterns.py (_invariants) over word bit sets:
// the same candidates, actions and sweeps, so the same greatest fixpoint.
// Variable v's values are members[var_start[v] .. var_start[v+1]).
// Writes the implications of the k-th member to row k of implies, and
// the values that imply the k-th needed-false fluent (ascending) to row
// k of implied_by.
void find_invariants(int n_fluents, int n_vars, const int* var_start, const int* members,
                     const int* init, int n_init, const ActionSet& actions, Word* implies_out,
                     Word* implied_by_out) {
    const int words = words_for(n_fluents);
    const int n_values = var_start[n_vars];
    std::vector<int> var_of(n_fluents, -1), value_row(n_fluents, -1), false_row(n_fluents, -1);
    BitRows var_mask(n_vars, words);
    std::vector<Word> values(words, 0), needed(words, 0), in_init(words, 0);
    for (int v = 0; v < n_vars; ++v)
        for (int k = var_start[v]; k < var_start[v + 1]; ++k) {
            var_of[members[k]] = v;
            value_row[members[k]] = k;
        }
    for (int k = 0; k < n_values; ++k) {
        set_bits(var_mask[var_of[members[k]]], members + k, members + k + 1);
        set_bits(&values[0], members + k, members + k + 1);
    }
    for (int a = 0; a < actions.n; ++a)
        set_bits(&needed[0], actions.begin(a, PRE_NEG), actions.end(a, PRE_NEG));
    set_bits(&in_init[0], init, init + n_init);
    int n_needed = 0;
    each_bit(&needed[0], words, [&](int q) { false_row[q] = n_needed++; });

    // the candidates the initial state allows (see _invariants)
    BitRows implies(n_values, words), mutex(n_values, words), implied_by(n_needed, words);
    for (int k = 0; k < n_values; ++k) {
        const int p = members[k];
        const bool now = test_bit(&in_init[0], p);
        const Word* own = var_mask[var_of[p]];
        for (int w = 0; w < words; ++w) {
            implies[k][w] = needed[w] & ~own[w] & (now ? in_init[w] : ~Word(0));
            mutex[k][w] = values[w] & ~own[w] & (now ? ~in_init[w] : ~Word(0));
        }
    }
    each_bit(&needed[0], words, [&](int q) {
        const bool now = test_bit(&in_init[0], q);
        Word* row = implied_by[false_row[q]];
        for (int w = 0; w < words; ++w)
            row[w] = values[w] & ~(var_of[q] >= 0 ? var_mask[var_of[q]][w] : 0) &
                     (now ? ~Word(0) : ~in_init[w]);
    });

    // per action: the value rows of its positive preconditions, the rows
    // of its negative ones, and the values and needed-false fluents whose
    // candidates it can break; then its masks: true and false by its
    // preconditions alone, added, and deleted-not-added
    struct Check {
        std::vector<int> pre, pre_neg, made, unmade;
    };
    enum { TRUE_BEFORE, FALSE_BEFORE, ADDED, GONE, MASKS };
    std::vector<Check> checks(actions.n);
    BitRows masks(size_t(actions.n) * MASKS, words);
    for (int a = 0; a < actions.n; ++a) {
        Check& c = checks[a];
        Word* true_before = masks[MASKS * a + TRUE_BEFORE];
        Word* false_before = masks[MASKS * a + FALSE_BEFORE];
        Word* add = masks[MASKS * a + ADDED];
        Word* gone = masks[MASKS * a + GONE];
        set_bits(true_before, actions.begin(a, PRE_POS), actions.end(a, PRE_POS));
        set_bits(false_before, actions.begin(a, PRE_NEG), actions.end(a, PRE_NEG));
        set_bits(add, actions.begin(a, ADD), actions.end(a, ADD));
        set_bits(gone, actions.begin(a, DEL), actions.end(a, DEL));
        for (int w = 0; w < words; ++w) gone[w] &= ~add[w];
        for (const int* f = actions.begin(a, PRE_POS); f != actions.end(a, PRE_POS); ++f) {
            if (var_of[*f] < 0) continue;
            c.pre.push_back(value_row[*f]);
            // the other values of its variable
            const Word* own = var_mask[var_of[*f]];
            for (int w = 0; w < words; ++w)
                false_before[w] |= own[w] & ~(w == *f >> 6 ? Word(1) << (*f & 63) : 0);
        }
        for (const int* f = actions.begin(a, PRE_NEG); f != actions.end(a, PRE_NEG); ++f)
            c.pre_neg.push_back(false_row[*f]);
        for (int w = 0; w < words; ++w) {
            const Word made = add[w] & values[w], unmade = gone[w] & needed[w];
            for (Word bits = made; bits; bits &= bits - 1)
                c.made.push_back(w * 64 + __builtin_ctzll(bits));
            for (Word bits = unmade; bits; bits &= bits - 1)
                c.unmade.push_back(w * 64 + __builtin_ctzll(bits));
        }
    }

    // Sweep the actions, forward and backward in turn, until a sweep
    // drops nothing. A dropped candidate leaves both directions at once.
    std::vector<Word> true_before(words), false_before(words), not_true_after(words),
        not_false_after(words), bad(words);
    bool changed = true;
    for (bool forward = true; changed; forward = !forward) {
        changed = false;
        for (int i = 0; i < actions.n; ++i) {
            const int a = forward ? i : actions.n - 1 - i;
            const Check& c = checks[a];
            const Word* add = masks[MASKS * a + ADDED];
            const Word* gone = masks[MASKS * a + GONE];
            std::memcpy(&true_before[0], masks[MASKS * a + TRUE_BEFORE], words * sizeof(Word));
            std::memcpy(&false_before[0], masks[MASKS * a + FALSE_BEFORE], words * sizeof(Word));
            for (size_t j = 0; j < c.pre.size(); ++j)
                for (int w = 0; w < words; ++w) {
                    true_before[w] |= implies[c.pre[j]][w];
                    false_before[w] |= mutex[c.pre[j]][w];
                }
            for (size_t j = 0; j < c.pre_neg.size(); ++j)
                for (int w = 0; w < words; ++w) false_before[w] |= implied_by[c.pre_neg[j]][w];
            for (int w = 0; w < words; ++w) {
                not_true_after[w] = ~(add[w] | (true_before[w] & ~gone[w]));
                not_false_after[w] = ~((gone[w] | false_before[w]) & ~add[w]);
            }
            for (size_t j = 0; j < c.made.size(); ++j) {
                const int p = c.made[j];
                if (take(implies[value_row[p]], &not_true_after[0], &bad[0], words)) {
                    changed = true;
                    each_bit(&bad[0], words, [&](int q) { clear_bit(implied_by[false_row[q]], p); });
                }
                if (take(mutex[value_row[p]], &not_false_after[0], &bad[0], words)) {
                    changed = true;
                    each_bit(&bad[0], words, [&](int r) { clear_bit(mutex[value_row[r]], p); });
                }
            }
            for (size_t j = 0; j < c.unmade.size(); ++j) {
                const int q = c.unmade[j];
                if (take(implied_by[false_row[q]], &not_false_after[0], &bad[0], words)) {
                    changed = true;
                    each_bit(&bad[0], words, [&](int p) { clear_bit(implies[value_row[p]], q); });
                }
            }
        }
    }
    if (n_values > 0) std::memcpy(implies_out, implies[0], size_t(n_values) * words * sizeof(Word));
    if (n_needed > 0)
        std::memcpy(implied_by_out, implied_by[0], size_t(n_needed) * words * sizeof(Word));
}

// One move between abstract states of a pattern, kept at its target
// for the backward search.
struct Edge {
    int to, from;
    int64_t cost;
};

// Fills dist[0 .. n_states) with each abstract state's cost to the
// nearest of targets along edges; an entry never passes UNREACHED, and
// the sums never overflow.
void cost_to_targets(int n_states, const std::vector<Edge>& edges, const std::vector<int>& targets,
                     int64_t* dist) {
    std::vector<int> start(size_t(n_states) + 1, 0), from(edges.size());
    std::vector<int64_t> cost(edges.size());
    for (size_t e = 0; e < edges.size(); ++e) ++start[edges[e].to + 1];
    for (int s = 0; s < n_states; ++s) start[s + 1] += start[s];
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (size_t e = 0; e < edges.size(); ++e) {
        const int slot = fill[edges[e].to]++;
        from[slot] = edges[e].from;
        cost[slot] = edges[e].cost;
    }
    typedef std::pair<int64_t, int> Item;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item> > heap;
    std::fill(dist, dist + n_states, UNREACHED);
    for (size_t i = 0; i < targets.size(); ++i) {
        dist[targets[i]] = 0;
        heap.push(Item(0, targets[i]));
    }
    while (!heap.empty()) {
        const Item top = heap.top();
        heap.pop();
        const int64_t d = top.first;
        const int t = top.second;
        if (d > dist[t]) continue;
        for (int j = start[t]; j < start[t + 1]; ++j) {
            const int s = from[j];
            // d + cost[j] < dist[s], which holds only below UNREACHED
            if (cost[j] < dist[s] - d) {
                dist[s] = d + cost[j];
                heap.push(Item(dist[s], s));
            }
        }
    }
}

// The pattern tables of patterns.py (_tables): every action projected
// onto the pattern variables, and one backward Dijkstra per pattern.
// Variable v's values are the fluents values[var_start[v] ..
// var_start[v+1]), where a negative entry stands for no fluent (the
// false value of a binary variable), and its target values are
// goal_values[goal_start[v] .. goal_start[v+1]). Row k of implied_by
// holds the values that imply fluent false_fluents[k]. Pattern k is the
// variables pattern_vars[2k] and pattern_vars[2k+1] (-1: none); its
// table, indexed value_a * size_b + value_b, follows the one before it
// in table.
class TableBuilder {
  public:
    TableBuilder(int n_fluents, const ActionSet& actions, int n_vars, const int* var_start,
                 const int* values, int n_false, const int* false_fluents,
                 const Word* implied_by)
        : cost_(actions.cost), var_start_(var_start), values_(values), words_(words_for(n_fluents)),
          required_(actions.n), sets_(actions.n), forbidden_(actions.n, words_),
          changers_(n_vars) {
        std::vector<int> slot_var(n_fluents, -1), slot_value(n_fluents, 0), row(n_fluents, -1);
        for (int v = 0; v < n_vars; ++v)
            for (int k = var_start[v]; k < var_start[v + 1]; ++k)
                if (values[k] >= 0) {
                    slot_var[values[k]] = v;
                    slot_value[values[k]] = k - var_start[v];
                }
        for (int k = 0; k < n_false; ++k) row[false_fluents[k]] = k;
        std::vector<int> pre;
        for (int a = 0; a < actions.n; ++a) {
            pre.assign(actions.begin(a, PRE_POS), actions.end(a, PRE_POS));
            std::sort(pre.begin(), pre.end());
            pre.erase(std::unique(pre.begin(), pre.end()), pre.end());
            for (size_t j = 0; j < pre.size(); ++j)
                if (slot_var[pre[j]] >= 0)
                    required_[a].push_back(Slot(slot_var[pre[j]], slot_value[pre[j]]));
            // a variable takes at most one added value; a binary one
            // that is deleted and not added becomes false
            for (const int* f = actions.begin(a, ADD); f != actions.end(a, ADD); ++f)
                if (slot_var[*f] >= 0) set(a, slot_var[*f], slot_value[*f], true);
            for (const int* f = actions.begin(a, DEL); f != actions.end(a, DEL); ++f)
                if (slot_var[*f] >= 0 && values[var_start[slot_var[*f]]] < 0)
                    set(a, slot_var[*f], 0, false);
            Word* forbidden = forbidden_[a];
            set_bits(forbidden, actions.begin(a, PRE_NEG), actions.end(a, PRE_NEG));
            for (const int* q = actions.begin(a, PRE_NEG); q != actions.end(a, PRE_NEG); ++q)
                if (row[*q] >= 0)
                    for (int w = 0; w < words_; ++w)
                        forbidden[w] |= implied_by[size_t(row[*q]) * words_ + w];
            for (size_t j = 0; j < sets_[a].size(); ++j) changers_[sets_[a][j].first].push_back(a);
        }
    }

    // Fills the table of the pattern over variables a and b (b -1: none)
    // into out, toward the targets goal_a x goal_b; returns its size.
    int64_t table(int a, int b, const int* goal_a, int n_goal_a, const int* goal_b, int n_goal_b,
                  int64_t* out) {
        const int size_b = b >= 0 ? size(b) : 1;
        const int n_states = size(a) * size_b;
        std::vector<int> acting(changers_[a]);
        if (b >= 0) {
            acting.insert(acting.end(), changers_[b].begin(), changers_[b].end());
            std::sort(acting.begin(), acting.end());
            acting.erase(std::unique(acting.begin(), acting.end()), acting.end());
        }
        edges_.clear();
        for (size_t j = 0; j < acting.size(); ++j) {
            const int act = acting[j];
            const int effect_a = project(act, a, allowed_a_);
            int effect_b = -1;
            if (b >= 0)
                effect_b = project(act, b, allowed_b_);
            else
                allowed_b_.assign(1, 0);
            for (size_t i = 0; i < allowed_a_.size(); ++i) {
                const int s = allowed_a_[i] * size_b;
                int t = effect_a < 0 ? s : effect_a * size_b;
                if (effect_b < 0) {
                    if (s != t)
                        for (size_t k = 0; k < allowed_b_.size(); ++k)
                            edges_.push_back(Edge{t + allowed_b_[k], s + allowed_b_[k], cost_[act]});
                } else {
                    t += effect_b;
                    for (size_t k = 0; k < allowed_b_.size(); ++k)
                        if (s + allowed_b_[k] != t)
                            edges_.push_back(Edge{t, s + allowed_b_[k], cost_[act]});
                }
            }
        }
        targets_.clear();
        for (int x = 0; x < n_goal_a; ++x)
            for (int y = 0; y < n_goal_b; ++y) targets_.push_back(goal_a[x] * size_b + goal_b[y]);
        cost_to_targets(n_states, edges_, targets_, out);
        return n_states;
    }

  private:
    typedef std::pair<int, int> Slot;  // (variable, value)

    int size(int v) const { return var_start_[v + 1] - var_start_[v]; }

    // Action a sets variable v to value; an added value wins over a
    // deleted one, and a later added value over an earlier one.
    void set(int a, int v, int value, bool added) {
        for (size_t j = 0; j < sets_[a].size(); ++j)
            if (sets_[a][j].first == v) {
                if (added) sets_[a][j].second = value;
                return;
            }
        sets_[a].push_back(Slot(v, value));
    }

    // The values of variable v that action a may start from: those it
    // requires (all if none) that it does not forbid. Returns the value
    // it moves v to, -1 if it leaves v alone.
    int project(int a, int v, std::vector<int>& allowed) const {
        const Word* forbidden = forbidden_[a];
        const int* values = values_ + var_start_[v];
        allowed.clear();
        bool required = false;
        for (size_t j = 0; j < required_[a].size(); ++j)
            if (required_[a][j].first == v) {
                required = true;
                const int i = required_[a][j].second;
                if (!test_bit(forbidden, values[i])) allowed.push_back(i);
            }
        if (!required)
            for (int i = 0; i < size(v); ++i)
                if (values[i] < 0 || !test_bit(forbidden, values[i])) allowed.push_back(i);
        for (size_t j = 0; j < sets_[a].size(); ++j)
            if (sets_[a][j].first == v) return sets_[a][j].second;
        return -1;
    }

    const int64_t* cost_;
    const int* var_start_;
    const int* values_;
    int words_;
    std::vector<std::vector<Slot> > required_, sets_;
    BitRows forbidden_;
    std::vector<std::vector<int> > changers_;  // the actions that set each variable
    // scratch of table()
    std::vector<int> allowed_a_, allowed_b_, targets_;
    std::vector<Edge> edges_;
};

// Copies a plan into memory the caller frees with release().
int* hand_over(const std::vector<int>& plan, int64_t* length) {
    int* copy = static_cast<int*>(std::malloc(sizeof(int) * (plan.size() + 1)));
    if (copy == NULL) throw std::bad_alloc();
    if (!plan.empty()) std::memcpy(copy, &plan[0], sizeof(int) * plan.size());
    *length = int64_t(plan.size());
    return copy;
}

void report(const Result& result, int64_t* counts) {
    counts[0] = result.expanded;
    counts[1] = result.generated;
    counts[2] = result.cost;
}

}  // namespace

extern "C" {

void release(int* plan) { std::free(plan); }

// Best-first search from init toward the goal: A* when optimal is not 0,
// else deferred greedy (see run). h is the lookup of the pattern tables
// when table is not NULL, else hmax for heuristic 1 and blind for 0. When
// b_start is not NULL, for the greedy search only, a second frontier runs
// backward from init_b (a complete goal state) over the inverted actions
// toward init, on its own tables. Returns the status; counts receives
// (expanded, generated, cost), *plan the forward plan and *plan_b the
// backward half, which traces init_b toward the meet state in
// application order, or NULL without a backward side; a plan that is not
// NULL is freed with release(). Running out of memory ends the search
// with MEMOUT. Action costs must not be negative.
int search(int n_fluents, const int* init, int n_init, const int* goal_pos, int n_goal_pos,
           const int* goal_neg, int n_goal_neg, int n_actions, const int* start,
           const int* fluents, const int64_t* cost, int heuristic, int n_vars, const int* var_of,
           const int* value_of, int n_patterns, const int* layout, const int64_t* table,
           int optimal, const int* init_b, int n_init_b, int nb_actions, const int* b_start,
           const int* b_fluents, const int64_t* b_cost, int nb_vars, const int* b_var_of,
           const int* b_value_of, int nb_patterns, const int* b_layout,
           const int64_t* b_table, double time_limit, int64_t node_limit, int64_t* counts,
           int** plan, int64_t* plan_len, int** plan_b, int64_t* plan_b_len) {
    const Deadline deadline(time_limit);
    Result result;
    int status = MEMOUT;
    *plan = *plan_b = NULL;
    *plan_len = *plan_b_len = 0;
    try {
        const int words = words_for(n_fluents);
        const ActionSet actions = {n_actions, start, fluents, cost};
        const Patterns patterns = {n_vars, var_of, value_of, n_patterns, layout, table};
        Frontier fwd(n_fluents, actions, heuristic, table != NULL ? &patterns : NULL, goal_pos,
                     n_goal_pos);
        std::unique_ptr<Frontier> bwd;
        if (b_start != NULL) {
            const ActionSet b_actions = {nb_actions, b_start, b_fluents, b_cost};
            const Patterns b_patterns = {nb_vars, b_var_of, b_value_of, nb_patterns, b_layout,
                                         b_table};
            bwd.reset(new Frontier(n_fluents, b_actions, H_BLIND, &b_patterns, NULL, 0));
        }
        const Goal goal(words, goal_pos, n_goal_pos, goal_neg, n_goal_neg);
        const std::vector<Word> start_f = pack(words, init, n_init);
        const std::vector<Word> start_b = pack(words, init_b, n_init_b);
        status = optimal ? run<true>(start_f, goal, fwd, start_b, bwd.get(), deadline,
                                     node_limit, result)
                         : run<false>(start_f, goal, fwd, start_b, bwd.get(), deadline,
                                      node_limit, result);
        *plan = hand_over(result.plan, plan_len);
        if (bwd) *plan_b = hand_over(result.plan_b, plan_b_len);
    } catch (const std::exception&) {  // only allocations throw
        status = MEMOUT;
        result.cost = 0;
        release(*plan);
        *plan = NULL;
        *plan_len = *plan_b_len = 0;
    }
    report(result, counts);
    return status;
}

// The invariants of patterns.py over fluents 0 .. n_fluents-1, written
// to implies and implied_by as find_invariants says, words_for(n_fluents)
// words a row. Returns 0, or MEMOUT when memory runs out.
int pattern_invariants(int n_fluents, int n_vars, const int* var_start, const int* members,
                       const int* init, int n_init, int n_actions, const int* start,
                       const int* fluents, const int64_t* cost, Word* implies,
                       Word* implied_by) {
    try {
        const ActionSet actions = {n_actions, start, fluents, cost};
        find_invariants(n_fluents, n_vars, var_start, members, init, n_init, actions, implies,
                        implied_by);
        return 0;
    } catch (const std::exception&) {  // only allocations throw
        return MEMOUT;
    }
}

// The tables of the patterns (see TableBuilder), laid end to end in
// table. Returns 0, or MEMOUT when memory runs out.
int pattern_tables(int n_fluents, int n_actions, const int* start, const int* fluents,
                   const int64_t* cost, int n_vars, const int* var_start, const int* values,
                   int n_false, const int* false_fluents, const Word* implied_by,
                   const int* goal_start, const int* goal_values, int n_patterns,
                   const int* pattern_vars, int64_t* table) {
    try {
        const ActionSet actions = {n_actions, start, fluents, cost};
        TableBuilder builder(n_fluents, actions, n_vars, var_start, values, n_false, false_fluents,
                             implied_by);
        for (int k = 0; k < n_patterns; ++k) {
            const int a = pattern_vars[2 * k], b = pattern_vars[2 * k + 1];
            const int zero = 0;
            table += builder.table(a, b, goal_values + goal_start[a], goal_start[a + 1] - goal_start[a],
                                   b >= 0 ? goal_values + goal_start[b] : &zero,
                                   b >= 0 ? goal_start[b + 1] - goal_start[b] : 1, table);
        }
        return 0;
    } catch (const std::exception&) {  // only allocations throw
        return MEMOUT;
    }
}

}  // extern "C"
