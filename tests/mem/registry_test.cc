/**
 * @file
 * Unit tests for the device table (the backend zoo): its contents and
 * order, case-insensitive lookup, names unique in any case, and system
 * composition (storage-tier devices pair with a
 * DRAM host, byte-addressable devices become the host tier).
 */
#include <cctype>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "mem/registry.h"

namespace helm::mem {
namespace {

TEST(Registry, BuiltinZooIsStableAndOrdered)
{
    const std::vector<std::string> expected{
        "DRAM", "NVDRAM", "MemoryMode", "SSD",      "FSDAX",
        "CXL-FPGA", "CXL-ASIC", "NDP-DIMM", "HBF"};
    EXPECT_EQ(device_names(), expected);
}

TEST(Registry, FindIsCaseInsensitive)
{
    for (const char *spelling : {"ndp-dimm", "NDP-DIMM", "Ndp-Dimm"}) {
        const RegisteredDevice *entry = find_device(spelling);
        ASSERT_NE(entry, nullptr) << spelling;
        EXPECT_STREQ(entry->name, "NDP-DIMM") << spelling;
    }
    EXPECT_NE(find_device("hbf"), nullptr);
    EXPECT_NE(find_device("nvdram"), nullptr);
    EXPECT_EQ(find_device("PDP-11"), nullptr);
}

TEST(Registry, NamesAreUniqueInAnyCase)
{
    // Lookup ignores case, so two names that differ only in case would
    // shadow one another.
    std::set<std::string> folded;
    for (const std::string &name : device_names()) {
        std::string lower = name;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        EXPECT_TRUE(folded.insert(lower).second) << name;
        EXPECT_STREQ(find_device(lower)->name, name.c_str());
    }
}

TEST(Registry, FactoriesReturnFreshInstances)
{
    // Devices are stateful (resident sets, endurance counters); the
    // registry must never hand the same instance to two runs.
    const RegisteredDevice *entry = find_device("HBF");
    ASSERT_NE(entry, nullptr);
    EXPECT_NE(entry->make().get(), entry->make().get());
}

TEST(Registry, StorageTierFlagsMatchTheDevices)
{
    // Storage devices are the ones that stage through a bounce buffer
    // (Sec. IV-B), and they are the Table II storage rows.
    for (const RegisteredDevice &entry : device_table()) {
        const std::string_view name = entry.name;
        EXPECT_EQ(entry.storage_tier(), name == "SSD" || name == "FSDAX")
            << name;
    }
    // HBF is a host-tier device despite being flash: byte-addressable,
    // no filesystem bounce buffer.
    EXPECT_FALSE(find_device("HBF")->storage_tier());
    EXPECT_FALSE(find_device("NDP-DIMM")->storage_tier());
}

TEST(Registry, MakeSystemPairsStorageWithDramHost)
{
    const auto system = make_system("SSD");
    ASSERT_TRUE(system.is_ok());
    EXPECT_EQ(system->host()->kind(), MemoryKind::kDram);
    ASSERT_TRUE(system->has_storage());
    EXPECT_EQ(system->storage()->kind(), MemoryKind::kSsd);
}

TEST(Registry, MakeSystemByteAddressableBecomesHostTier)
{
    const auto system = make_system("NDP-DIMM");
    ASSERT_TRUE(system.is_ok());
    EXPECT_EQ(system->host()->kind(), MemoryKind::kNdpDimm);
    EXPECT_FALSE(system->has_storage());
}

TEST(Registry, MakeSystemUnknownDeviceFailsWithNames)
{
    const auto system = make_system("core-memory");
    ASSERT_FALSE(system.is_ok());
    // The diagnostic names the unknown device and lists the zoo.
    EXPECT_NE(system.status().to_string().find("core-memory"),
              std::string::npos);
    EXPECT_NE(system.status().to_string().find("NDP-DIMM"),
              std::string::npos);
}

TEST(Registry, EverySummaryIsNonEmpty)
{
    for (const RegisteredDevice &entry : device_table())
        EXPECT_STRNE(entry.summary, "") << entry.name;
}

} // namespace
} // namespace helm::mem
