module sysprof/bench

go 1.22

require sysprof v0.0.0

replace sysprof => ../
