/**
 * @file
 * Component: the common base of everything the simulator instantiates.
 *
 * A component has a name, a position in the ownership tree (parent /
 * children, dotted path like "system.core0.l1d") and the three hooks
 * a tree walk uses: drained() for the termination check and the
 * cycle-limit report, registerStats() to publish its counters under
 * its path into a StatRegistry, and portRefs() to report its request
 * port slots for the connectivity audit.
 *
 * The tick/quiescence contract (tick, quiescent, nextEventAt,
 * skipCycles, localNow; DESIGN.md §4c and §5) is not virtual: the
 * System scheduler calls it on the concrete `final` types, so the
 * memoized inline fast paths are statically dispatched.
 * QuiescenceMemo is the one memoized-verdict shape behind those fast
 * paths in the core and the caches.
 */

#ifndef DX_SIM_COMPONENT_HH
#define DX_SIM_COMPONENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dx
{

class StatRegistry;

/**
 * A memoized quiescent() verdict (DESIGN.md §4c). It holds for the
 * probe of cycle `next` while next < until and, when a departure
 * counter is watched, while that counter has not moved since the
 * verdict was taken (arrivals never free queue space). A sleep verdict
 * is a deadline with no watched counter; a verdict blocked on a full
 * downstream queue watches that queue's popCountAddr() and never
 * expires by itself. The owner clears it at every entry point that can
 * change what the verdict read.
 */
struct QuiescenceMemo
{
    Cycle until = 0;                      //!< 0: no verdict held
    const std::uint64_t *watch = nullptr; //!< departure counter, or null
    std::uint64_t pops = 0;               //!< *watch when taken

    bool
    holds(Cycle next) const
    {
        return next < until && (!watch || *watch == pops);
    }

    void
    clear()
    {
        until = 0;
        watch = nullptr;
    }

    void
    sleepUntil(Cycle cycle)
    {
        until = cycle;
        watch = nullptr;
    }

    void
    blockOn(const std::uint64_t *counter)
    {
        until = kNeverCycle;
        watch = counter;
        pops = *counter;
    }
};

/** One request-port slot of a component, for the connectivity audit. */
struct PortRef
{
    const char *name;
    bool bound;
};

class Component
{
  public:
    explicit Component(std::string name);
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return name_; }
    Component *parent() const { return parent_; }
    const std::vector<Component *> &children() const { return children_; }

    /**
     * Attach @p child beneath this component in the naming tree.
     * Ownership stays with the caller (the topology holds the
     * unique_ptrs); the tree only describes structure.
     */
    void adopt(Component &child);

    /** Rename before adoption (multi-instance disambiguation). */
    void rename(std::string name);

    /** Dotted path from the root, e.g. "system.core0.l1d". */
    std::string path() const;

    // ---- tree-walk hooks -----------------------------------------------

    /**
     * Nothing in flight: the termination-side twin of the ticked
     * components' quiescent(). Passive components (e.g. a prefetcher
     * that acts inside its cache's tick) keep the default.
     */
    virtual bool drained() const { return true; }

    /** Publish counters/gauges under path() into @p reg. */
    virtual void registerStats(StatRegistry &reg) const { (void)reg; }

    /** This component's request-port slots (name, bound). */
    virtual std::vector<PortRef> portRefs() const { return {}; }

  private:
    std::string name_;
    Component *parent_ = nullptr;
    std::vector<Component *> children_;
};

/**
 * Depth-first pre-order traversal of the component tree rooted at
 * @p root, invoking f(const Component &) on every node.
 */
template <typename F>
void
forEachComponent(const Component &root, F &&f)
{
    f(root);
    for (const Component *c : root.children())
        forEachComponent(*c, f);
}

/** registerStats() over the whole tree (used by System's constructor). */
void registerTreeStats(const Component &root, StatRegistry &reg);

} // namespace dx

#endif // DX_SIM_COMPONENT_HH
