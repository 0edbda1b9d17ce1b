/**
 * @file
 * Unit tests for the device registry (the backend zoo): the built-in
 * table's contents and order, case-insensitive lookup, duplicate
 * rejection, and system composition (storage-tier devices pair with a
 * DRAM host, byte-addressable devices become the host tier).
 */
#include <gtest/gtest.h>

#include "mem/registry.h"

namespace helm::mem {
namespace {

TEST(Registry, BuiltinZooIsStableAndOrdered)
{
    const std::vector<std::string> expected{
        "DRAM", "NVDRAM", "MemoryMode", "SSD",      "FSDAX",
        "CXL-FPGA", "CXL-ASIC", "NDP-DIMM", "HBF"};
    EXPECT_EQ(DeviceRegistry::builtin().names(), expected);
}

TEST(Registry, FindIsCaseInsensitive)
{
    const DeviceRegistry &zoo = DeviceRegistry::builtin();
    for (const char *spelling : {"ndp-dimm", "NDP-DIMM", "Ndp-Dimm"}) {
        const RegisteredDevice *entry = zoo.find(spelling);
        ASSERT_NE(entry, nullptr) << spelling;
        EXPECT_EQ(entry->name, "NDP-DIMM") << spelling;
    }
    EXPECT_NE(zoo.find("hbf"), nullptr);
    EXPECT_NE(zoo.find("nvdram"), nullptr);
    EXPECT_EQ(zoo.find("PDP-11"), nullptr);
}

TEST(Registry, AddRejectsDuplicateNamesCaseInsensitively)
{
    DeviceRegistry registry;
    RegisteredDevice device;
    device.name = "Widget";
    device.make = [] { return make_dram(); };
    EXPECT_TRUE(registry.add(device).is_ok());
    device.name = "widget";
    const Status dup = registry.add(device);
    EXPECT_FALSE(dup.is_ok());
    EXPECT_EQ(registry.names().size(), 1u);
}

TEST(Registry, FactoriesReturnFreshInstances)
{
    // Devices are stateful (resident sets, endurance counters); the
    // registry must never hand the same instance to two runs.
    const RegisteredDevice *entry =
        DeviceRegistry::builtin().find("HBF");
    ASSERT_NE(entry, nullptr);
    EXPECT_NE(entry->make().get(), entry->make().get());
}

TEST(Registry, StorageTierFlagsMatchTheDevices)
{
    const DeviceRegistry &zoo = DeviceRegistry::builtin();
    for (const RegisteredDevice &entry : zoo.devices()) {
        // Storage devices are the ones that stage through a bounce
        // buffer (Sec. IV-B).
        EXPECT_EQ(entry.storage_tier, entry.make()->needs_bounce_buffer())
            << entry.name;
    }
    EXPECT_TRUE(zoo.find("SSD")->storage_tier);
    EXPECT_TRUE(zoo.find("FSDAX")->storage_tier);
    // HBF is a host-tier device despite being flash: byte-addressable,
    // no filesystem bounce buffer.
    EXPECT_FALSE(zoo.find("HBF")->storage_tier);
    EXPECT_FALSE(zoo.find("NDP-DIMM")->storage_tier);
}

TEST(Registry, MakeSystemPairsStorageWithDramHost)
{
    const auto system = DeviceRegistry::builtin().make_system("SSD");
    ASSERT_TRUE(system.is_ok());
    EXPECT_EQ(system->host()->kind(), MemoryKind::kDram);
    ASSERT_TRUE(system->has_storage());
    EXPECT_EQ(system->storage()->kind(), MemoryKind::kSsd);
}

TEST(Registry, MakeSystemByteAddressableBecomesHostTier)
{
    const auto system =
        DeviceRegistry::builtin().make_system("NDP-DIMM");
    ASSERT_TRUE(system.is_ok());
    EXPECT_EQ(system->host()->kind(), MemoryKind::kNdpDimm);
    EXPECT_FALSE(system->has_storage());
}

TEST(Registry, MakeSystemUnknownDeviceFailsWithNames)
{
    const auto system =
        DeviceRegistry::builtin().make_system("core-memory");
    ASSERT_FALSE(system.is_ok());
    // The diagnostic names the unknown device and lists the zoo.
    EXPECT_NE(system.status().to_string().find("core-memory"),
              std::string::npos);
    EXPECT_NE(system.status().to_string().find("NDP-DIMM"),
              std::string::npos);
}

TEST(Registry, EverySummaryIsNonEmpty)
{
    for (const RegisteredDevice &entry :
         DeviceRegistry::builtin().devices())
        EXPECT_FALSE(entry.summary.empty()) << entry.name;
}

} // namespace
} // namespace helm::mem
