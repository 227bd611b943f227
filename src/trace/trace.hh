/**
 * @file
 * In-memory instruction traces and the source abstraction the CPU
 * model consumes.
 */

#ifndef S64V_TRACE_TRACE_HH
#define S64V_TRACE_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace s64v
{

/**
 * A complete in-memory instruction trace for one CPU, plus minimal
 * provenance metadata.
 *
 * The trace also holds the memo of its fingerprintTrace() value, so
 * a trace shared by many sweep points and checkpoints is hashed once.
 * Every mutator clears the memo, and no accessor hands out a mutable
 * reference to the records, so a memoized value always matches the
 * bytes. The slot is atomic (release store, acquire load): concurrent
 * readers of one shared trace may race to fill it, and all of them
 * store and see the same value.
 */
class InstrTrace
{
  public:
    InstrTrace() = default;
    explicit InstrTrace(std::string workload_name)
        : workloadName_(std::move(workload_name)) {}
    InstrTrace(std::string workload_name,
               std::vector<TraceRecord> records)
        : workloadName_(std::move(workload_name)),
          records_(std::move(records)) {}

    // std::atomic is neither copyable nor movable. A copy holds the
    // same bytes, so it keeps the memo; a moved-from trace loses it.
    InstrTrace(const InstrTrace &o)
        : workloadName_(o.workloadName_), records_(o.records_),
          fingerprint_(o.fingerprint_.load(std::memory_order_acquire))
    {}
    InstrTrace(InstrTrace &&o) noexcept
        : workloadName_(std::move(o.workloadName_)),
          records_(std::move(o.records_)),
          fingerprint_(o.fingerprint_.exchange(
              kNoFingerprint, std::memory_order_acq_rel))
    {}
    InstrTrace &
    operator=(const InstrTrace &o)
    {
        if (this != &o) {
            workloadName_ = o.workloadName_;
            records_ = o.records_;
            setMemo(o.fingerprint_.load(std::memory_order_acquire));
        }
        return *this;
    }
    InstrTrace &
    operator=(InstrTrace &&o) noexcept
    {
        if (this != &o) {
            workloadName_ = std::move(o.workloadName_);
            records_ = std::move(o.records_);
            setMemo(o.fingerprint_.exchange(
                kNoFingerprint, std::memory_order_acq_rel));
        }
        return *this;
    }

    void
    append(const TraceRecord &rec)
    {
        records_.push_back(rec);
        setMemo(kNoFingerprint);
    }
    void reserve(std::size_t n) { records_.reserve(n); }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }

    const std::vector<TraceRecord> &records() const { return records_; }

    const std::string &workloadName() const { return workloadName_; }
    void
    setWorkloadName(std::string n)
    {
        workloadName_ = std::move(n);
        setMemo(kNoFingerprint);
    }

  private:
    friend std::uint64_t fingerprintTrace(const InstrTrace &trace);

    /** Empty memo slot; a computed 0 is simply never memoized. */
    static constexpr std::uint64_t kNoFingerprint = 0;

    void
    setMemo(std::uint64_t v) const
    {
        fingerprint_.store(v, std::memory_order_release);
    }

    std::string workloadName_;
    std::vector<TraceRecord> records_;
    mutable std::atomic<std::uint64_t> fingerprint_{kNoFingerprint};
};

/**
 * Sequential reader over an InstrTrace. The fetch unit pulls records
 * through this interface so alternative sources (file streaming,
 * samplers) can be substituted.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** @return false when the trace is exhausted. */
    virtual bool peek(TraceRecord &out) const = 0;

    /** Advance past the current record. */
    virtual void pop() = 0;

    /** Records consumed so far. */
    virtual std::size_t consumed() const = 0;

    /** Restart from the beginning. */
    virtual void rewind() = 0;
};

/** TraceSource over an in-memory trace (non-owning view). */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(const InstrTrace &trace)
        : trace_(&trace) {}

    bool
    peek(TraceRecord &out) const override
    {
        if (pos_ >= trace_->size())
            return false;
        out = (*trace_)[pos_];
        return true;
    }

    void pop() override { ++pos_; }
    std::size_t consumed() const override { return pos_; }
    void rewind() override { pos_ = 0; }

    /**
     * Reposition to absolute record index @p pos (checkpoint
     * restore). @p pos == size() is valid: an exhausted source.
     */
    void seek(std::size_t pos) { pos_ = pos; }
    std::size_t size() const { return trace_->size(); }

  private:
    const InstrTrace *trace_;
    std::size_t pos_ = 0;
};

} // namespace s64v

#endif // S64V_TRACE_TRACE_HH
