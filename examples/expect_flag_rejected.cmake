# Runs SIM with `FLAG VALUE` followed by an unknown --stack, and passes iff
# the run exits with status 2 and its stderr names FLAG. The trailing
# --stack is rejected while parsing too, so the run stops before any trace,
# world or worker thread exists even if FLAG's own check regressed.
execute_process(COMMAND "${SIM}" "${FLAG}" "${VALUE}" --stack none
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET TIMEOUT 30)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${FLAG} '${VALUE}': exit ${rc}, want 2; stderr: ${err}")
endif()
string(FIND "${err}" "gcopss_sim: ${FLAG} expects" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not reject ${FLAG}: ${err}")
endif()
