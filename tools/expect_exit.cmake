# Runs a command and fails unless it exits with an expected code —
# CTest's WILL_FAIL only distinguishes zero from nonzero, but the CLI's
# exit-code contract (2 usage, 3 validation, 4 data loss) is part of its
# interface and each class gets pinned by a smoke test.
#
# Usage:
#   cmake -DEXPECT=<code> "-DCMD=<prog;arg;arg...>"
#         [-DEXPECT_ERROR=<regex>] [-DGARBAGE_SHARD=<dir>] -P expect_exit.cmake
#
# EXPECT_ERROR, when set, must also match the command's stderr (e.g. the
# flag a validation error names).
#
# GARBAGE_SHARD, when set, (re)creates <dir> holding one file that is
# not a valid shard part — the fixture behind the exit-4 test.

if(NOT DEFINED EXPECT OR NOT DEFINED CMD)
  message(FATAL_ERROR "expect_exit.cmake needs -DEXPECT=<code> and -DCMD=<prog;args>")
endif()

if(DEFINED GARBAGE_SHARD)
  file(REMOVE_RECURSE "${GARBAGE_SHARD}")
  file(MAKE_DIRECTORY "${GARBAGE_SHARD}")
  file(WRITE "${GARBAGE_SHARD}/part-00000.hds" "this is not a shard part")
endif()

if(DEFINED EXPECT_ERROR)
  execute_process(COMMAND ${CMD} RESULT_VARIABLE rc ERROR_VARIABLE err)
else()
  execute_process(COMMAND ${CMD} RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}': ${CMD}")
endif()
if(DEFINED EXPECT_ERROR AND NOT err MATCHES "${EXPECT_ERROR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERROR}': ${err}")
endif()
