// ProcessShard against fake children: the request a routed TOPN puts on
// the child's stdin, and the defined outcome when a child dies — every
// routed request gets a typed IOError naming the shard, the frontend
// answers ERR, and Stop returns.

#include "serve/process_shard.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/frontend.h"
#include "serve/shard_router.h"

namespace ganc {
namespace {

// A child that runs `script` under /bin/sh (Spawn's --shard=k/N lands in
// the script's $0).
Result<std::unique_ptr<ProcessShard>> SpawnScript(const std::string& script) {
  return ProcessShard::Spawn({"/bin/sh", "-c", script}, ShardSpec{0, 1});
}

std::unique_ptr<ShardRouter> RouterOver(std::unique_ptr<ProcessShard> child) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.push_back(std::move(child));
  return ShardRouter::FromBackends(std::move(backends), /*num_users=*/10,
                                   /*num_items=*/20, /*default_n=*/5)
      .value();
}

TEST(ProcessShardTest, RoutedRequestsReachTheChildAsTopNV) {
  // Rejects every line, quoting it back.
  Result<std::unique_ptr<ProcessShard>> child = SpawnScript(
      "echo 'READY shard=0/1 version=7 source=Fake Model'; "
      "while read -r line; do echo \"ERR got $line\"; done");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ((*child)->ready_line(), "READY shard=0/1 version=7 source=Fake Model");
  EXPECT_EQ((*child)->version(), 7u);
  EXPECT_EQ((*child)->source(), "Fake Model");
  std::unique_ptr<ShardRouter> router = RouterOver(std::move(child).value());
  ServeFrontend frontend(*router, FrontendRole::kMultiProcess);
  bool quit = false;
  // Sessions expand in the frontend: the child sees sorted exclusions.
  EXPECT_EQ(frontend.HandleLine("CONSUME session=s user=3 items=9,4", &quit),
            "OK consumed=2");
  EXPECT_EQ(frontend.HandleLine("TOPN user=3 session=s", &quit),
            "ERR got TOPNV user=3 n=0 exclude=4,9");
  EXPECT_EQ(frontend.HandleLine("TOPN user=3 n=2 exclude=8,1", &quit),
            "ERR got TOPNV user=3 n=2 exclude=8,1");
}

TEST(ProcessShardTest, ServedListsAndVersionsComeBackFromTheReply) {
  Result<std::unique_ptr<ProcessShard>> child = SpawnScript(
      "echo 'READY shard=0/1 version=7 source=Fake'; "
      "while read -r line; do echo 'OK user=3 n=2 version=7 items=5,1'; "
      "done");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  std::unique_ptr<ShardRouter> router = RouterOver(std::move(child).value());
  ServeFrontend frontend(*router, FrontendRole::kMultiProcess);
  bool quit = false;
  EXPECT_EQ(frontend.HandleLine("TOPNV user=3 n=2", &quit),
            "OK user=3 n=2 version=7 items=5,1");
  EXPECT_EQ(frontend.HandleLine("TOPN user=3", &quit),
            "OK user=3 n=5 items=5,1");
}

TEST(ProcessShardTest, DeadChildGivesTypedErrorsAndStops) {
  Result<std::unique_ptr<ProcessShard>> child =
      SpawnScript("echo 'READY shard=0/1 version=1 source=Fake'");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  ProcessShard* shard = child->get();
  std::unique_ptr<ShardRouter> router = RouterOver(std::move(child).value());

  std::vector<ItemId> out;
  const Status status = router->TopNInto(3, 5, {}, &out);
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_NE(status.message().find("shard 0"), std::string::npos)
      << status.ToString();

  ServeFrontend frontend(*router, FrontendRole::kMultiProcess);
  bool quit = false;
  EXPECT_EQ(frontend.HandleLine("TOPN user=3 n=5", &quit).rfind("ERR shard 0", 0),
            0u);
  EXPECT_EQ(frontend.HandleLine("STATS", &quit).rfind("ERR shard 0", 0), 0u);
  EXPECT_EQ(frontend.HandleLine("PING", &quit), "OK pong");
  shard->Stop();
  shard->Stop();  // idempotent
}

TEST(ProcessShardTest, ChildThatNeverGetsReadyIsAStartError) {
  Result<std::unique_ptr<ProcessShard>> child = SpawnScript("exit 0");
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.status().code(), StatusCode::kIOError);
  EXPECT_NE(child.status().message().find("shard 0/1 failed to start"),
            std::string::npos)
      << child.status().ToString();
}

}  // namespace
}  // namespace ganc
