// The timing proxy backend and the span recorder it writes into.
//
// A ProxyDevice wraps a real target::Device built through the registry and
// forwards every call unchanged; while a Tracer is active it also records a
// span around each call that does real work (load, configure, inject,
// drain, digest, snapshot, tap arming).  Configuration delivery is
// bracketed between the end of load() and the digest-ring arm that
// run_scenario_on() issues right after configuring, which makes the
// management wire (RuntimeClient -> transport -> ControlServer) visible as
// the time around the device's own apply().
//
// Guided mode: CampaignEngine drives execute_scenario() itself, so the
// phase spans are inferred from the device calls, in the order
// execute_scenario() makes them:
//   reference set_coverage(map)   a scenario starts; detection
//   DUT set_coverage(map)         that DUT's detection run
//   DUT set_coverage(nullptr)     compare
//   first load after compare      minimize: prefix replays, reference first
//   DUT tap arm during minimize   localize; the replay pair just before it
//                                 was the localizer's warm-up and moves over
// A scenario ends at its last device call.  Reference devices created
// without DUTs after them are the concolic relight oracle; their runs are
// recorded under verify.relight.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "perfbench.h"
#include "target/device.h"

namespace perfbench {

namespace ndbt = ndb::target;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char* span_layer(SpanName n) {
    switch (n) {
        case SpanName::scenario: return "core.scenario";
        case SpanName::specgen: return "core.specgen";
        case SpanName::detect: return "core.detect";
        case SpanName::compare: return "core.compare";
        case SpanName::minimize: return "core.minimize";
        case SpanName::localize: return "core.localize";
        case SpanName::merge: return "core.merge";
        case SpanName::wire: return "control.wire";
        case SpanName::apply: return "control.apply";
        case SpanName::load: return "target.load";
        case SpanName::inject: return "target.inject";
        case SpanName::drain: return "target.drain";
        case SpanName::digest: return "target.digest";
        case SpanName::snapshot: return "target.snapshot";
        case SpanName::taps: return "target.taps";
        case SpanName::relight: return "verify.relight";
        case SpanName::count_: break;
    }
    return "?";
}

// --- tracer -------------------------------------------------------------------

std::uint32_t Tracer::open_at(SpanName name, std::uint64_t start_ns) {
    Span s;
    s.name = name;
    s.parent = top();
    s.scenario = scenario_;
    s.start_ns = start_ns;
    spans_.push_back(s);
    const auto handle = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(handle);
    return handle;
}

void Tracer::close_at(std::uint32_t handle, std::uint64_t end_ns) {
    if (stack_.empty() || stack_.back() != handle) {
        std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                     span_layer(spans_[handle - 1].name));
        std::abort();
    }
    stack_.pop_back();
    spans_[handle - 1].end_ns = end_ns;
}

namespace {

Tracer* g_tracer = nullptr;

// The steady clock spans are stamped with (Device::now_ns() is the device's
// virtual clock).
std::uint64_t wall_ns() { return perfbench::now_ns(); }

class ProxyDevice;

// Device roles: a reference-role proxy is a worker's golden device when a
// DUT was created after it on the same thread (WorkerContext builds the
// reference, then the DUTs); otherwise it is the guided campaign's relight
// oracle.
thread_local ProxyDevice* g_last_reference = nullptr;

// Guided-mode phase inference state (traced runs are single-threaded).
struct GuidedState {
    enum class Phase { none, detect, compare, minimize, localize };
    Phase phase = Phase::none;
    std::uint32_t scenario_span = 0;
    std::uint32_t phase_span = 0;
    std::uint32_t relight_span = 0;
    std::uint32_t pair_start = 0;  // load span opening the latest replay pair
    std::uint64_t last_call_end = 0;
    std::uint64_t scenarios = 0;
};
GuidedState g_guided;

// Closes the current phase at `t` and opens `next` there.
void switch_phase(Tracer& tr, GuidedState::Phase phase, SpanName next,
                  std::uint64_t t) {
    if (g_guided.scenario_span == 0) return;  // outside any scenario
    if (g_guided.phase_span != 0) tr.close_at(g_guided.phase_span, t);
    g_guided.phase_span = tr.open_at(next, t);
    g_guided.phase = phase;
}

void end_scenario(Tracer& tr) {
    if (g_guided.scenario_span == 0) return;
    const std::uint64_t t = g_guided.last_call_end;
    if (g_guided.phase_span != 0) {
        tr.close_at(g_guided.phase_span,
                    std::max(t, tr.at(g_guided.phase_span).start_ns));
    }
    tr.close_at(g_guided.scenario_span, t);
    g_guided.scenario_span = 0;
    g_guided.phase_span = 0;
    g_guided.phase = GuidedState::Phase::none;
    tr.set_scenario(0);
}

class ProxyDevice final : public ndbt::Device {
public:
    ProxyDevice(std::unique_ptr<ndbt::Device> inner, bool dut)
        : inner_(std::move(inner)), dut_(dut) {
        if (dut_) {
            if (g_last_reference != nullptr) g_last_reference->worker_ = true;
        } else {
            g_last_reference = this;
        }
    }
    ~ProxyDevice() override {
        if (g_last_reference == this) g_last_reference = nullptr;
    }

    // --- lifecycle ------------------------------------------------------------
    ndb::control::Status load(const ndb::p4::ir::Program& prog) override {
        Tracer* tr = tracer();
        if (tr == nullptr) return inner_->load(prog);
        const std::uint64_t t0 = wall_ns();
        bool pair = false;
        if (tr->guided && role() != Role::oracle) {
            if (g_guided.phase == GuidedState::Phase::compare) {
                switch_phase(*tr, GuidedState::Phase::minimize,
                             SpanName::minimize, t0);
                tr->at(g_guided.scenario_span).divergent = true;
            }
            pair = g_guided.phase == GuidedState::Phase::minimize && !dut_;
        }
        const std::uint32_t h = tr->open_at(SpanName::load, t0);
        if (pair) g_guided.pair_start = h;
        auto st = inner_->load(prog);
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        // Configuration follows; bracket it until the digest ring is armed.
        wire_span_ = tr->open_at(SpanName::wire, t1);
        note_call_end(t1);
        return st;
    }
    bool loaded() const override { return inner_->loaded(); }
    const ndb::p4::ir::Program& program() const override {
        return inner_->program();
    }
    const ndbt::DeviceConfig& config() const override { return inner_->config(); }

    // --- data path ------------------------------------------------------------
    void inject(ndb::packet::Packet pkt) override {
        Tracer* tr = tracer();
        if (tr == nullptr) return inner_->inject(std::move(pkt));
        const std::uint32_t h = tr->open(SpanName::inject);
        inner_->inject(std::move(pkt));
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        note_call_end(t1);
    }
    std::vector<ndb::packet::Packet> drain_port(std::uint32_t port) override {
        Tracer* tr = tracer();
        if (tr == nullptr) return inner_->drain_port(port);
        const std::uint32_t h = tr->open(SpanName::drain);
        auto out = inner_->drain_port(port);
        tr->at(h).items = out.size();
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        note_call_end(t1);
        return out;
    }
    void drain_port_into(std::uint32_t port,
                         std::vector<ndb::packet::Packet>& out) override {
        Tracer* tr = tracer();
        if (tr == nullptr) return inner_->drain_port_into(port, out);
        const std::size_t before = out.size();
        const std::uint32_t h = tr->open(SpanName::drain);
        inner_->drain_port_into(port, out);
        tr->at(h).items = out.size() - before;
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        note_call_end(t1);
    }

    // --- debug path -----------------------------------------------------------
    void set_taps_enabled(bool on) override {
        Tracer* tr = tracer();
        if (tr == nullptr) return inner_->set_taps_enabled(on);
        const std::uint64_t t0 = wall_ns();
        if (on && tr->guided && dut_ &&
            g_guided.phase == GuidedState::Phase::minimize) {
            start_localize(*tr);
        }
        const std::uint32_t h = tr->open_at(SpanName::taps, t0);
        if (on && dut_) tr->at(h).items = 1;  // one localizer probe
        inner_->set_taps_enabled(on);
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        note_call_end(t1);
    }
    bool taps_enabled() const override { return inner_->taps_enabled(); }
    const std::vector<ndbt::TapRecord>& tap_records() const override {
        return inner_->tap_records();
    }
    void clear_tap_records() override {
        timed(SpanName::taps, [&] { inner_->clear_tap_records(); });
    }

    void set_digests_enabled(bool on) override {
        Tracer* tr = tracer();
        if (tr != nullptr && on && wire_span_ != 0) {
            tr->close(wire_span_);
            wire_span_ = 0;
        }
        timed(SpanName::digest, [&] { inner_->set_digests_enabled(on); });
    }
    bool digests_enabled() const override { return inner_->digests_enabled(); }
    const std::vector<ndb::dataplane::TapDigest>& digest_records() const override {
        return inner_->digest_records();
    }
    void clear_digest_records() override {
        timed(SpanName::digest, [&] { inner_->clear_digest_records(); });
    }
    std::vector<ndb::dataplane::TapDigest> take_digest_records() override {
        std::vector<ndb::dataplane::TapDigest> out;
        timed(SpanName::digest, [&] { out = inner_->take_digest_records(); });
        return out;
    }

    void set_coverage(ndb::coverage::CoverageMap* map) override {
        Tracer* tr = tracer();
        const std::uint64_t t0 = tr != nullptr ? wall_ns() : 0;
        inner_->set_coverage(map);
        if (tr == nullptr || !tr->guided) return;
        const std::uint64_t t1 = wall_ns();
        const bool on = map != nullptr;
        switch (role()) {
            case Role::oracle:
                if (on) {
                    end_scenario(*tr);
                    g_guided.relight_span = tr->open_at(SpanName::relight, t0);
                } else if (g_guided.relight_span != 0) {
                    tr->close_at(g_guided.relight_span, t1);
                    g_guided.relight_span = 0;
                }
                return;
            case Role::reference:
                if (on) {
                    end_scenario(*tr);
                    tr->set_scenario(++g_guided.scenarios);
                    g_guided.scenario_span = tr->open_at(SpanName::scenario, t0);
                    g_guided.phase_span = tr->open_at(SpanName::detect, t0);
                    g_guided.phase = GuidedState::Phase::detect;
                }
                break;
            case Role::dut:
                if (on) {
                    switch_phase(*tr, GuidedState::Phase::detect,
                                 SpanName::detect, t0);
                } else {
                    switch_phase(*tr, GuidedState::Phase::compare,
                                 SpanName::compare, t1);
                }
                break;
        }
        note_call_end(t1);
    }
    ndb::coverage::CoverageMap* coverage() const override {
        return inner_->coverage();
    }
    std::uint64_t coverage_salt() const override { return inner_->coverage_salt(); }
    void set_engine(ndb::dataplane::Engine engine) override {
        inner_->set_engine(engine);
    }
    ndb::dataplane::Engine engine() const override { return inner_->engine(); }
    std::uint64_t now_ns() const override { return inner_->now_ns(); }

    // --- management surface ---------------------------------------------------
    ndb::control::TableHandle resolve_table(const std::string& name) override {
        return inner_->resolve_table(name);
    }
    ndb::control::ExternHandle resolve_extern(const std::string& name) override {
        return inner_->resolve_extern(name);
    }
    ndb::control::Status add_entry(const std::string& table,
                                   const ndb::control::EntrySpec& entry) override {
        return inner_->add_entry(table, entry);
    }
    ndb::control::Status delete_entry(const std::string& table,
                                      const ndb::control::EntrySpec& entry) override {
        return inner_->delete_entry(table, entry);
    }
    ndb::control::Status set_default_action(
        const std::string& table, const std::string& action,
        const std::vector<ndb::util::Bitvec>& args) override {
        return inner_->set_default_action(table, action, args);
    }
    ndb::control::Status clear_table(const std::string& table) override {
        return inner_->clear_table(table);
    }
    ndb::control::Status write_register(const std::string& name,
                                        std::uint64_t index,
                                        const ndb::util::Bitvec& value) override {
        return inner_->write_register(name, index, value);
    }
    ndb::control::Status read_register(const std::string& name,
                                       std::uint64_t index,
                                       ndb::util::Bitvec& out) override {
        return inner_->read_register(name, index, out);
    }
    ndb::control::Status read_counter(const std::string& name, std::uint64_t index,
                                      ndb::control::CounterValue& out) override {
        return inner_->read_counter(name, index, out);
    }
    ndb::control::Status configure_meter(
        const std::string& name, std::uint64_t index,
        const ndb::control::MeterConfig& config) override {
        return inner_->configure_meter(name, index, config);
    }
    ndb::control::Status add_entry(const ndb::control::TableHandle& table,
                                   const ndb::control::EntrySpec& entry) override {
        return inner_->add_entry(table, entry);
    }
    ndb::control::Status delete_entry(const ndb::control::TableHandle& table,
                                      const ndb::control::EntrySpec& entry) override {
        return inner_->delete_entry(table, entry);
    }
    ndb::control::Status set_default_action(
        const ndb::control::TableHandle& table, const std::string& action,
        const std::vector<ndb::util::Bitvec>& args) override {
        return inner_->set_default_action(table, action, args);
    }
    ndb::control::Status write_register(const ndb::control::ExternHandle& ext,
                                        std::uint64_t index,
                                        const ndb::util::Bitvec& value) override {
        return inner_->write_register(ext, index, value);
    }
    ndb::control::Status read_register(const ndb::control::ExternHandle& ext,
                                       std::uint64_t index,
                                       ndb::util::Bitvec& out) override {
        return inner_->read_register(ext, index, out);
    }
    std::vector<ndb::control::Status> apply(
        std::span<const ndb::control::ConfigOp> ops) override {
        std::vector<ndb::control::Status> out;
        const std::uint32_t h = timed(SpanName::apply, [&] { out = inner_->apply(ops); });
        if (h != 0) tracer()->at(h).items = ops.size();
        return out;
    }
    ndb::control::StatusSnapshot snapshot() override {
        ndb::control::StatusSnapshot out;
        timed(SpanName::snapshot, [&] { out = inner_->snapshot(); });
        return out;
    }
    ndb::control::Status reset_state() override { return inner_->reset_state(); }

private:
    enum class Role { reference, dut, oracle };

    Role role() const {
        if (dut_) return Role::dut;
        return worker_ ? Role::reference : Role::oracle;
    }

    // Oracle calls are not part of any scenario, so they never move the
    // scenario's end.
    void note_call_end(std::uint64_t t) {
        if (role() != Role::oracle) g_guided.last_call_end = t;
    }

    // Records a span of `name` around `fn` when tracing; returns its handle
    // (0 when untraced).
    template <typename Fn>
    std::uint32_t timed(SpanName name, Fn&& fn) {
        Tracer* tr = tracer();
        if (tr == nullptr) {
            fn();
            return 0;
        }
        const std::uint32_t h = tr->open(name);
        fn();
        const std::uint64_t t1 = wall_ns();
        tr->close_at(h, t1);
        note_call_end(t1);
        return h;
    }

    // The DUT armed its taps: the localizer is probing.  The replay pair
    // opened at pair_start was the localizer's warm-up, so minimize ends
    // where it began and its spans move under the localize span.
    static void start_localize(Tracer& tr) {
        const std::uint32_t minimize = g_guided.phase_span;
        const std::uint32_t from = g_guided.pair_start;
        const std::uint64_t t = from != 0 ? tr.at(from).start_ns : wall_ns();
        tr.close_at(minimize, t);
        g_guided.phase_span = tr.open_at(SpanName::localize, t);
        g_guided.phase = GuidedState::Phase::localize;
        if (from == 0) return;
        for (std::uint32_t h = from; h < g_guided.phase_span; ++h) {
            if (tr.at(h).parent == minimize) tr.at(h).parent = g_guided.phase_span;
        }
    }

    static Tracer* tracer() { return g_tracer; }

    std::unique_ptr<ndbt::Device> inner_;
    bool dut_;
    bool worker_ = false;
    std::uint32_t wire_span_ = 0;
};

}  // namespace

void set_active_tracer(Tracer* tracer) {
    g_tracer = tracer;
    g_guided = GuidedState{};
}

void finish_guided_trace(std::uint64_t end_ns) {
    if (g_tracer != nullptr) {
        end_scenario(*g_tracer);
        if (g_guided.relight_span != 0) {
            g_tracer->close_at(g_guided.relight_span, end_ns);
        }
    }
    g_guided = GuidedState{};
}

std::string register_traced_backend(const std::string& inner, bool dut) {
    const std::string name = (dut ? "traced-dut-" : "traced-ref-") + inner;
    // A second registration of the same name is refused, which keeps this
    // idempotent.
    ndbt::register_backend(
        name, [inner, dut](std::optional<ndb::dataplane::Quirks> quirks)
                  -> std::unique_ptr<ndbt::Device> {
            auto real = ndbt::make_device(inner, std::move(quirks));
            if (!real) return nullptr;
            return std::make_unique<ProxyDevice>(std::move(real), dut);
        });
    return name;
}

ndb::core::CampaignConfig traced_config(ndb::core::CampaignConfig config) {
    config.reference_backend =
        register_traced_backend(config.reference_backend, false);
    for (auto& d : config.duts) {
        if (d.label.empty()) d.label = d.name;
        d.name = register_traced_backend(d.name, true);
    }
    return config;
}

}  // namespace perfbench
