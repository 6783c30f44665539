module nestedtx/bench

go 1.24

require nestedtx v0.0.0

replace nestedtx => ../
