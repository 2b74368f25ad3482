// A target::Device that forwards every call to a wrapped real device.
// Tests derive from it and override only the call they make fail (load()
// or inject()), so each failing test device stays a few lines long.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "target/device.h"

namespace ndb_test {

class ForwardingDevice : public ndb::target::Device {
public:
    explicit ForwardingDevice(std::unique_ptr<ndb::target::Device> inner)
        : inner_(std::move(inner)) {}

    ndb::control::Status load(const ndb::p4::ir::Program& prog) override {
        return inner_->load(prog);
    }
    bool loaded() const override { return inner_->loaded(); }
    const ndb::p4::ir::Program& program() const override {
        return inner_->program();
    }
    const ndb::target::DeviceConfig& config() const override {
        return inner_->config();
    }
    void inject(ndb::packet::Packet pkt) override {
        inner_->inject(std::move(pkt));
    }
    std::vector<ndb::packet::Packet> drain_port(std::uint32_t port) override {
        return inner_->drain_port(port);
    }
    void set_taps_enabled(bool on) override { inner_->set_taps_enabled(on); }
    bool taps_enabled() const override { return inner_->taps_enabled(); }
    const std::vector<ndb::target::TapRecord>& tap_records() const override {
        return inner_->tap_records();
    }
    void clear_tap_records() override { inner_->clear_tap_records(); }
    void set_digests_enabled(bool on) override { inner_->set_digests_enabled(on); }
    bool digests_enabled() const override { return inner_->digests_enabled(); }
    const std::vector<ndb::dataplane::TapDigest>& digest_records() const override {
        return inner_->digest_records();
    }
    void clear_digest_records() override { inner_->clear_digest_records(); }
    void set_coverage(ndb::coverage::CoverageMap* map) override {
        inner_->set_coverage(map);
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

    ndb::control::Status add_entry(const std::string& table,
                                   const ndb::control::EntrySpec& entry) override {
        return inner_->add_entry(table, entry);
    }
    ndb::control::Status delete_entry(
        const std::string& table, const ndb::control::EntrySpec& entry) override {
        return inner_->delete_entry(table, entry);
    }
    ndb::control::Status set_default_action(
        const std::string& table, const std::string& action,
        const std::vector<ndb::control::Bitvec>& args) override {
        return inner_->set_default_action(table, action, args);
    }
    ndb::control::Status clear_table(const std::string& table) override {
        return inner_->clear_table(table);
    }
    ndb::control::Status write_register(const std::string& name,
                                        std::uint64_t index,
                                        const ndb::control::Bitvec& value) override {
        return inner_->write_register(name, index, value);
    }
    ndb::control::Status read_register(const std::string& name,
                                       std::uint64_t index,
                                       ndb::control::Bitvec& out) override {
        return inner_->read_register(name, index, out);
    }
    ndb::control::Status read_counter(const std::string& name,
                                      std::uint64_t index,
                                      ndb::control::CounterValue& out) override {
        return inner_->read_counter(name, index, out);
    }
    ndb::control::Status configure_meter(
        const std::string& name, std::uint64_t index,
        const ndb::control::MeterConfig& config) override {
        return inner_->configure_meter(name, index, config);
    }
    ndb::control::StatusSnapshot snapshot() override { return inner_->snapshot(); }
    ndb::control::Status reset_state() override { return inner_->reset_state(); }

private:
    std::unique_ptr<ndb::target::Device> inner_;
};

}  // namespace ndb_test
