// acgpu::Device ownership API: process-unique ids, health flagging
// (fail-stop), and Engines bound to an explicit Device — including
// several engines sharing one device.
#include "pipeline/device.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "pipeline/engine.h"
#include "util/rng.h"

namespace acgpu {
namespace {

DeviceOptions small_device() {
  DeviceOptions opt;
  opt.gpu.num_sms = 4;
  opt.memory_bytes = 64u << 20;
  return opt;
}

EngineOptions fast_engine() {
  EngineOptions opt;
  opt.mode = gpusim::SimMode::Functional;
  opt.threads_per_block = 64;
  return opt;
}

/// `count` random lowercase words of 4-10 letters: a dictionary whose STT
/// upload runs to hundreds of kilobytes at a few hundred words.
std::vector<std::string> random_words(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words(count);
  for (std::string& w : words) {
    w.resize(rng.next_in(4, 10));
    for (char& c : w) c = static_cast<char>('a' + rng.next_below(26));
  }
  return words;
}

/// Space-separated words drawn from `words`, so every scan finds matches.
std::string text_of(const std::vector<std::string>& words, std::uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += words[rng.next_below(words.size())];
    text += ' ';
  }
  return text;
}

TEST(Device, IdsAreProcessUniqueAndRegistered) {
  Device a = Device::create(small_device()).value();
  Device b = Device::create(small_device()).value();
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.name(), "device." + std::to_string(a.id()));
  EXPECT_EQ(b.name(), "device." + std::to_string(b.id()));

  // A dropped device's id is never handed out again.
  const std::uint32_t dropped = Device::create(small_device()).value().id();
  EXPECT_GT(Device::create(small_device()).value().id(), dropped);
}

TEST(Device, CustomNameAndZeroMemoryRejected) {
  DeviceOptions opt = small_device();
  opt.name = "edge-node-3";
  Device d = Device::create(opt).value();
  EXPECT_EQ(d.name(), "edge-node-3");

  opt.memory_bytes = 0;
  EXPECT_EQ(Device::create(opt).status().code(), StatusCode::kInvalidArgument);
}

TEST(Device, HealthFlagGatesEngineScans) {
  Device device = Device::create(small_device()).value();
  Engine engine =
      Engine::create(device, ac::PatternSet({"he", "she"}), fast_engine())
          .value();
  ASSERT_TRUE(engine.scan("ushers").is_ok());

  device.mark_failed("pulled for maintenance");
  EXPECT_FALSE(device.healthy());
  EXPECT_EQ(device.fail_reason(), "pulled for maintenance");
  const auto failed = engine.scan("ushers");
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  device.restore();
  EXPECT_TRUE(device.healthy());
  EXPECT_TRUE(engine.scan("ushers").is_ok());
}

TEST(Device, EnginesShareOneDeviceAndAgree) {
  Device device = Device::create(small_device()).value();
  Engine a = Engine::create(device, ac::PatternSet({"ab"}), fast_engine())
                 .value();
  Engine b = Engine::create(device, ac::PatternSet({"abc", "bc"}),
                            fast_engine())
                 .value();
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(&a.device(), &device);
  EXPECT_EQ(&b.device(), &device);

  const std::string text = "xabcababc";
  EXPECT_EQ(a.scan(text).value().matches, ac::find_all(a.dfa(), text));
  EXPECT_EQ(b.scan(text).value().matches, ac::find_all(b.dfa(), text));
}

TEST(Device, EngineIdsAreUniqueAcrossDevices) {
  Device d1 = Device::create(small_device()).value();
  Device d2 = Device::create(small_device()).value();
  std::vector<std::uint32_t> ids;
  for (Device* d : {&d1, &d2})
    for (int i = 0; i < 3; ++i)
      ids.push_back(Engine::create(*d, ac::PatternSet({"x"}), fast_engine())
                        .value()
                        .id());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = i + 1; j < ids.size(); ++j)
      EXPECT_NE(ids[i], ids[j]);
}

TEST(Device, DfaOverloadBindsToExplicitDevice) {
  Device device = Device::create(small_device()).value();
  const CompiledPatterns compiled =
      CompiledPatterns::compile(ac::build_dfa(ac::PatternSet({"ab"}), 8)).value();
  Engine engine = Engine::create(device, compiled, fast_engine()).value();
  EXPECT_EQ(engine.scan("abab").value().matches.size(), 2u);
}

TEST(Device, EngineCreateFailsCleanlyWhenTheAutomatonDoesNotFit) {
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  const std::size_t upload =
      kernels::DeviceDfa::upload_bytes(ac::build_dfa(patterns, 8));
  DeviceOptions dopt = small_device();
  dopt.memory_bytes = upload - 1;
  Device tight = Device::create(dopt).value();
  const Result<Engine> refused = Engine::create(tight, patterns, fast_engine());
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCapacityExceeded);
  const std::string& why = refused.status().message();
  EXPECT_NE(why.find("needs " + std::to_string(upload) + " B"), std::string::npos)
      << why;
  EXPECT_NE(why.find(std::to_string(upload - 1) + " B free"), std::string::npos)
      << why;

  // Exactly enough room takes one upload, and no second one while the
  // first engine lives.
  dopt.memory_bytes = upload;
  Device exact = Device::create(dopt).value();
  const Result<Engine> first = Engine::create(exact, patterns, fast_engine());
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(Engine::create(exact, patterns, fast_engine()).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(Device, AClassTableFitsWhereAByteWideOneWouldNot) {
  // The device STT has one column per byte class (kernels/device_dfa.h):
  // lowercase words have 27 (the letters and the rest), 32 words a row where
  // a byte-wide table takes 264. A device one byte short of the byte-wide
  // table refused the automaton with kCapacityExceeded while that was the
  // upload; it now takes it and scans exactly.
  const std::vector<std::string> words = random_words(300, 11);
  const ac::PatternSet patterns(words);
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  ASSERT_EQ(dfa.byte_pitch(), 264u);
  const std::size_t byte_wide = std::size_t{dfa.state_count()} * dfa.byte_pitch() * 4;
  const std::size_t upload = kernels::DeviceDfa::upload_bytes(dfa);
  EXPECT_EQ(upload, std::size_t{dfa.state_count()} * 32 * 4);
  DeviceOptions dopt = small_device();
  dopt.memory_bytes = byte_wide - 1;
  Device device = Device::create(dopt).value();
  ASSERT_LT(device.memory().available(), byte_wide);
  Result<Engine> engine = Engine::create(device, patterns, fast_engine());
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const std::string text = text_of(words, 12);
  Result<ScanResult> scan = engine.value().scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_FALSE(scan.value().matches.empty());
  EXPECT_EQ(scan.value().matches, ac::find_all(engine.value().dfa(), text));
}

TEST(Device, DroppedEnginesReturnTheirUpload) {
  // The device holds one upload plus scan buffers, never two uploads: each
  // create -> scan -> drop cycle must hand its upload back to the arena.
  const std::vector<std::string> words = random_words(400, 5);
  const ac::PatternSet patterns(words);
  const std::size_t upload =
      kernels::DeviceDfa::upload_bytes(ac::build_dfa(patterns, 8));
  DeviceOptions dopt = small_device();
  dopt.memory_bytes = upload + (256u << 10);
  ASSERT_GT(upload, 256u << 10);
  Device device = Device::create(dopt).value();
  const std::size_t available = device.memory().available();
  const std::string text = text_of(words, 6);
  for (int cycle = 0; cycle < 5; ++cycle) {
    Result<Engine> engine = Engine::create(device, patterns, fast_engine());
    ASSERT_TRUE(engine.is_ok()) << "cycle " << cycle << ": "
                                << engine.status().to_string();
    Result<ScanResult> scan = engine.value().scan(text);
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_EQ(scan.value().matches, ac::find_all(engine.value().dfa(), text));
  }
  EXPECT_EQ(device.memory().available(), available);
}

TEST(Device, DroppingAnEngineUnderALaterUploadKeepsBoth) {
  // A is dropped while B's upload sits above it: the bump arena cannot give
  // A's space back, and B must keep scanning from its own intact upload.
  Device device = Device::create(small_device()).value();
  const std::vector<std::string> words = random_words(300, 7);
  std::optional<Engine> a =
      Engine::create(device, ac::PatternSet({"he", "she", "his"}), fast_engine())
          .value();
  Engine b = Engine::create(device, ac::PatternSet(words), fast_engine()).value();
  const std::size_t available = device.memory().available();
  a.reset();
  EXPECT_EQ(device.memory().available(), available);
  const std::string text = text_of(words, 8);
  Result<ScanResult> scan = b.scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_EQ(scan.value().matches, ac::find_all(b.dfa(), text));
}

TEST(Device, EnginesShareOneCompiledAutomaton) {
  // compile() builds the DFA once; every engine built from the result
  // shares it and uploads its class table.
  Device device = Device::create(small_device()).value();
  const CompiledPatterns compiled =
      CompiledPatterns::compile(ac::PatternSet({"ab", "b"})).value();
  EXPECT_EQ(compiled.dfa().classes().count, 3u);  // a, b and the rest
  Engine a = Engine::create(device, compiled, fast_engine()).value();
  EXPECT_EQ(device.memory().allocated(), kernels::DeviceDfa::upload_bytes(compiled.dfa()));
  Engine b = Engine::create(device, compiled, fast_engine()).value();
  for (const Engine* e : {&a, &b}) {
    EXPECT_EQ(&e->dfa(), &compiled.dfa());
    EXPECT_EQ(&e->compiled().dfa(), &compiled.dfa());
  }
  EXPECT_EQ(a.scan("abab").value().matches, b.scan("abab").value().matches);

  EXPECT_EQ(CompiledPatterns::compile(ac::PatternSet{}).status().code(),
            StatusCode::kInvalidArgument);
  const ac::PatternSet none;
  EXPECT_EQ(CompiledPatterns::compile(ac::Dfa(ac::Automaton(none), none)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace acgpu
